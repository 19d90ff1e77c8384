"""Language-grounded object selection on synthetic 3D scenes."""

import importlib

# each public name and the submodule that defines it; a name loads its
# submodule on first use (PEP 562), so `ground gen` never compiles the model
_EXPORTS = {
    "features": ("audio_embedding", "cloud_stats", "label_embedding", "object_feature_stub",
                 "object_features", "object_representation", "object_representations"),
    "model": ("AttentionParams", "GroundingConfig", "GroundingFailure", "GroundingModel",
              "GroundingResult", "attention_params_from", "audio_guided_attention",
              "classify_audio", "detect_mentions", "ground", "init_grounding_model",
              "load_checkpoint", "loss_and_grads", "param_shapes", "prepare_scene",
              "save_checkpoint"),
    "scene": ("RELATIONS", "GenConfig", "SceneObject", "SyntheticScene", "generate_scenes",
              "group_objects", "iter_scenes", "read_scenes", "verify_scene", "write_scenes"),
    "train": ("EpochRecord", "EvalReport", "TrainConfig", "evaluate", "gradient_check",
              "train_toy"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    # not cached here: each lookup reads the defining module's current binding
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
