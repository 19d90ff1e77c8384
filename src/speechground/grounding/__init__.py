"""Language-grounded object selection on synthetic 3D scenes."""

from .features import (audio_embedding, label_embedding, object_feature_stub,
                       object_features, object_representation,
                       object_representations)
from .model import (AttentionParams, GroundingConfig, GroundingFailure,
                    GroundingModel, GroundingResult, attention_params_from,
                    audio_guided_attention, classify_audio, detect_mentions,
                    ground, init_grounding_model, load_checkpoint,
                    loss_and_grads, param_shapes, prepare_scene, save_checkpoint)
from .scene import (RELATIONS, GenConfig, SceneObject, SyntheticScene,
                    generate_scenes, group_objects, iter_scenes, read_scenes,
                    verify_scene, write_scenes)
from .train import (EpochRecord, EvalReport, TrainConfig, evaluate,
                    gradient_check, train_toy)

__all__ = [
    "RELATIONS", "AttentionParams", "EpochRecord", "EvalReport", "GenConfig",
    "GroundingConfig", "GroundingFailure", "GroundingModel", "GroundingResult",
    "SceneObject", "SyntheticScene", "TrainConfig", "attention_params_from",
    "audio_embedding", "audio_guided_attention", "classify_audio",
    "detect_mentions", "evaluate", "generate_scenes", "gradient_check",
    "ground", "group_objects", "init_grounding_model", "iter_scenes",
    "label_embedding", "load_checkpoint", "loss_and_grads",
    "object_feature_stub", "object_features", "object_representation",
    "object_representations", "param_shapes",
    "prepare_scene", "read_scenes", "save_checkpoint",
    "train_toy", "verify_scene", "write_scenes",
]
