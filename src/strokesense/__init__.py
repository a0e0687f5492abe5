"""strokesense: IMU table-tennis stroke recognition and skill scoring."""

from .errors import StrokeSenseError
from .features import FEATURE_NAMES, channel_stats, feature_matrix, window_features
from .io import SensorSeries, parse_series, serialize_series, validate_series
from .labels import IDLE, StrokeLabel
from .metrics import ConfusionMatrix, classification_report, confusion, f_measure, precision_recall
from .mlp import MlpModel, mlp_forward, mlp_init, mlp_train
from .pca import PcaModel, contribution_rates, fit_pca, transform
from .preprocessing import (
    adaptive_filter,
    diff_stats,
    newton_fill,
    preprocess_channel,
    preprocess_series,
    remove_outliers,
)
from .scoring import (
    REFERENCE_AHP_MATRIX,
    REFERENCE_LEVEL_WEIGHTS,
    StandardProfile,
    ahp_weights,
    build_profile,
    indicator_matrix,
    score_window,
    total_score,
)
from .svm import (
    DagSvmModel,
    KernelSvmModel,
    dag_predict,
    dag_predict_batch,
    train_dagsvm,
    train_pairwise_svm,
)
from .synth import GenConfig, generate, stroke_windows
from .windows import (
    MotionWindow,
    activation_matrix,
    is_active,
    slide_windows,
    train_activation,
)

__version__ = "0.1.0"
