from .layers import Conv1d, Dense, Lstm, MultiHeadAttention
from .model import PROFILES, CarleNet, ModelProfile, ResCnnUnit, get_profile
from .train import RmsProp, TrainConfig, TrainReport

__all__ = [
    "Conv1d",
    "Dense",
    "Lstm",
    "MultiHeadAttention",
    "PROFILES",
    "CarleNet",
    "ModelProfile",
    "ResCnnUnit",
    "get_profile",
    "RmsProp",
    "TrainConfig",
    "TrainReport",
]
