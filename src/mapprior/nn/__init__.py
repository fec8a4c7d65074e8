from .tensor import Tensor, backward, constant, parameter, zero_grads
from .ops import (add, channel_dot, concat, conv2d, maxpool2, mul, sigmoid,
                  sum_all, tanh, upsample2, weighted_mse)
from .lstm import lstm_forward
from .adam import AdamState, adam_step
from .serialize import WeightsFormatError, load_weights, save_weights
from .gradcheck import finite_difference_check

__all__ = [
    "Tensor", "backward", "constant", "parameter", "zero_grads",
    "add", "mul", "sigmoid", "tanh",
    "concat", "sum_all", "conv2d", "maxpool2", "upsample2", "channel_dot",
    "weighted_mse",
    "lstm_forward",
    "AdamState", "adam_step",
    "save_weights", "load_weights", "WeightsFormatError",
    "finite_difference_check",
]
