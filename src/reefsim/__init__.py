"""reefsim: deterministic desk-scale simulator for audio-visual reef surveys.

Synthetic reef worlds with habitat-dependent visual appearance and snap
emitters; a survey vehicle with EKF localization; drift-interleaved
audio-visual missions; a snap detector; unsupervised habitat discovery; the
habitat-to-snap-rate regression; and a visual-servo target follower.
"""

from .acoustics import AcousticsConfig, Spectrogram, band_energy, detect_snaps_in_window, snap_rate_series, stft
from .analysis import (
    AnalysisReport,
    analyze_log,
    fit_shrimp_habitat,
    pearson,
    predict_snap_rate,
)
from .config import RunConfig, load_config
from .mission import MissionConfig, MissionLog, MissionPlan, execute, load_log, plan_lawnmower, save_log
from .rng import substream
from .topics import TopicModel, TopicsConfig, match_accuracy
from .tracking import Camera, TargetConfig, TrackingConfig, run_tracking_episode
from .vehicle import (
    Command,
    EkfEstimate,
    NoiseConfig,
    SensorReadings,
    VehicleConfig,
    VehicleState,
    ekf_predict,
    ekf_update,
    simulate_sensors,
    step_dynamics,
)
from .world import AudioWindow, GridWorld, WorldConfig, generate_world, sample_image_words, synthesize_audio

__version__ = "0.1.0"

__all__ = [
    "AcousticsConfig",
    "AnalysisReport",
    "AudioWindow",
    "Camera",
    "Command",
    "EkfEstimate",
    "GridWorld",
    "MissionConfig",
    "MissionLog",
    "MissionPlan",
    "NoiseConfig",
    "RunConfig",
    "SensorReadings",
    "Spectrogram",
    "TargetConfig",
    "TopicModel",
    "TopicsConfig",
    "TrackingConfig",
    "VehicleConfig",
    "VehicleState",
    "WorldConfig",
    "analyze_log",
    "band_energy",
    "detect_snaps_in_window",
    "ekf_predict",
    "ekf_update",
    "execute",
    "fit_shrimp_habitat",
    "generate_world",
    "load_config",
    "load_log",
    "match_accuracy",
    "pearson",
    "plan_lawnmower",
    "predict_snap_rate",
    "run_tracking_episode",
    "sample_image_words",
    "save_log",
    "simulate_sensors",
    "snap_rate_series",
    "step_dynamics",
    "stft",
    "substream",
    "synthesize_audio",
]
