"""Exception hierarchy shared across the package.

Each class carries its CLI exit code and the label that starts its one-line
stderr message; cli.main prints and returns those of the error it catches.
"""


class LightWeatherError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 1
    label = "error"


class ConfigError(LightWeatherError):
    """Invalid configuration value, file, or combination."""

    exit_code, label = 1, "config error"


class ShapeError(LightWeatherError):
    """Tensor dimensions inconsistent with the declared contract."""

    exit_code, label = 1, "config error"


class ValidationError(LightWeatherError):
    """Out-of-range or non-finite runtime input."""

    exit_code, label = 4, "validation error"


class IngestionError(LightWeatherError):
    """CSV ingestion failure (bad header, bad value, bad grid)."""

    exit_code, label = 2, "ingestion error"


class CheckpointError(LightWeatherError):
    """Checkpoint file unreadable or inconsistent with the model config."""

    exit_code, label = 4, "checkpoint error"


class OptimizerError(LightWeatherError):
    """Optimizer step aborted (e.g. non-finite gradient)."""

    exit_code, label = 3, "training error"


class TrainingError(LightWeatherError):
    """Training loop aborted with a diagnostic."""

    exit_code, label = 3, "training error"


class EvaluationError(LightWeatherError):
    """Evaluation could not run (e.g. empty split)."""

    exit_code, label = 4, "evaluation error"
