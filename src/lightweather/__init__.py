"""Station-based weather forecasting from absolute spatial/temporal
positional encodings and a residual MLP, trained with a from-scratch
reverse-mode gradient stack."""

from .baselines import hi_forecast, run_ablation_suite
from .checkpoint import checkpoint_load, checkpoint_save
from .data import (
    Normalizer,
    ObservationSet,
    chronological_split,
    load_observations_csv,
    load_stations_csv,
    split_windows,
)
from .model import (
    ModelConfig,
    ModelParams,
    StationCoord,
    TimeFeature,
    closed_form_count,
    forward,
    init_params,
    parameter_count,
)
from .synthetic import SynthConfig, generate, random_station_coords
from .training import FitResult, Metrics, TrainConfig, evaluate, fit

__version__ = "0.1.0"
