"""Exception types shared across the package."""


class ConfigError(ValueError):
    """A hyperparameter or configuration value is out of its valid range."""


class InputError(ValueError):
    """A runtime input (batch, dataset, matrix row) violates a precondition."""


class ParseError(ValueError):
    """A binary archive could not be parsed; message names the file offset."""


class NumericError(ArithmeticError):
    """A numeric input contained NaN/Inf where finite values are required."""
