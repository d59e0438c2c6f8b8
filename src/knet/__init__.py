"""Unified semantic, instance, and panoptic segmentation with learnable
mask kernels, iteratively refined by group-feature-conditioned updates and
trained end to end through mask-based bipartite matching."""

from .data import GroundTruthSample, SceneSpec, generate_sample, read_dataset, write_dataset
from .head import StageOutput
from .matching import LossBreakdown, hungarian_assign
from .metrics import ApResult, PanopticMap, PqResult, SegmentInfo, compute_mask_ap, compute_miou, compute_pq
from .model import ModelConfig, SegmentationModel, binarize_instances, merge_panoptic
from .tensor import Tensor, grad_check, no_grad, precision
from .training import TrainConfig, ablate, evaluate, load_checkpoint, save_checkpoint, train

__all__ = [
    "ApResult", "GroundTruthSample", "LossBreakdown", "ModelConfig",
    "PanopticMap", "PqResult", "SceneSpec", "SegmentationModel", "SegmentInfo",
    "StageOutput", "Tensor", "TrainConfig",
    "ablate", "binarize_instances", "compute_mask_ap", "compute_miou", "compute_pq",
    "evaluate", "generate_sample", "grad_check", "hungarian_assign", "load_checkpoint",
    "merge_panoptic", "no_grad", "precision", "read_dataset", "save_checkpoint",
    "train", "write_dataset",
]

__version__ = "0.1.0"
