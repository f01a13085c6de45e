"""objcap: a desk-scale video captioner grounded on attended object interactions.

The numeric core is a hand-built reverse-mode tape over float64 numpy
arrays; on top of it sit the recurrent object-interaction attention module,
a two-LSTM caption decoder with shared temporal/co-attention, beam search,
caption metrics, an ADAM trainer with a plateau schedule, and a deterministic
binary data and checkpoint format. `objcap --help` drives the pipeline.
"""

from .captioner import beam_search, forward_teacher_forced
from .data import SegmentFeatures, SynthSpec, Vocabulary, load_segment, synth_dataset
from .metrics import evaluate_captions
from .model import Model, ModelConfig, init_model
from .tensor import ContractError, ShapeError, Tensor
from .trainer import TrainConfig, load_checkpoint, save_checkpoint, train

__all__ = [
    "Tensor", "ShapeError", "ContractError",
    "Model", "ModelConfig", "init_model",
    "beam_search", "forward_teacher_forced",
    "SegmentFeatures", "SynthSpec", "Vocabulary", "load_segment", "synth_dataset",
    "evaluate_captions",
    "TrainConfig", "train", "save_checkpoint", "load_checkpoint",
]
__version__ = "0.1.0"
