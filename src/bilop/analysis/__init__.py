from .bmo import BmoReport, bmo_norm
from .bumps import bump, normalized_profile, profile_derivative_bound, raw_profile
from .calderon import (CalderonScanReport, ConverseReport, calderon_demo,
                       calderon_ratio, calderon_scan, converse_check)
from .compactness import (CompactnessComparison, CompactnessProbe,
                          compactness_probe, compare_probes)
from .scans import (FAMILY_NAMES, KatoPonceReport, NormScanReport,
                    SmoothingContrastReport, family_member, holder_r,
                    kato_ponce_check, norm_scan, smoothing_contrast)
from .t1 import T1Report, check_t1_conditions, project_top_mode
from .wbp import CONFIGS as WBP_CONFIGS
from .wbp import WbpReport, default_scales, wbp_scan

__all__ = [
    "BmoReport", "bmo_norm",
    "bump", "normalized_profile", "profile_derivative_bound", "raw_profile",
    "CalderonScanReport", "ConverseReport", "calderon_demo", "calderon_ratio",
    "calderon_scan", "converse_check",
    "CompactnessComparison", "CompactnessProbe", "compactness_probe",
    "compare_probes",
    "FAMILY_NAMES", "KatoPonceReport", "NormScanReport",
    "SmoothingContrastReport", "family_member", "holder_r",
    "kato_ponce_check", "norm_scan", "smoothing_contrast",
    "T1Report", "check_t1_conditions", "project_top_mode",
    "WBP_CONFIGS", "WbpReport", "default_scales", "wbp_scan",
]
