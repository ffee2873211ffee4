"""Desk-scale toolkit for pruning and distilling video-diffusion denoisers.

Modules:
  tensor     float64 reverse-mode autodiff engine
  netgraph   video U-Net graphs derived from per-stage layer counts, ablation
  diffusion  EDM preconditioning, sampling, the denoising loss
  pruner     block-importance profiling, the block-removal plan
  icmd       feature distillation + multi-frame adversarial fine-tuning
  evalkit    FVD proxy, motion proxy, latency profiling
  synthdata  procedural moving-shape video corpus and VDDS files
  checkpoint VDMK named-tensor checkpoint files
  cli        pipeline orchestration (`vdmini` entry point); imported on
             demand (`from vdmini import cli`), so that `python -m vdmini.cli`
             does not find it already imported
"""

__version__ = "0.1.0"

from . import (checkpoint, diffusion, errors, evalkit, icmd, netgraph, optim,
               pruner, synthdata, tensor)

__all__ = ["checkpoint", "cli", "diffusion", "errors", "evalkit", "icmd",
           "netgraph", "optim", "pruner", "synthdata", "tensor", "__version__"]
