"""Simulated large language models and LoRA-style fine-tuning.

The paper evaluates GPT-3.5-turbo, GPT-4, Llama2-7b and StarChat-beta and
fine-tunes the two open-source models with QLoRA on a single GPU.  Neither
the closed APIs nor GPU fine-tuning are available in this offline
environment, so this package provides *simulated* chat models with the same
text-in/text-out interface:

* each model extracts the code from the prompt, runs an internal (imperfect)
  static heuristic over it, and converts that evidence into a yes/no verdict
  and (when requested) a variable-pair report;
* a per-(model, prompt-strategy) :class:`~repro.llm.behavior.BehaviorProfile`
  controls how reliably the model follows its own analysis, how often it
  keeps the requested output format, and how often a reported variable pair
  is the right one — the profiles are calibrated against the confusion
  matrices the paper reports (Tables 2, 3 and 5), so the reproduction keeps
  the published shape of the comparison;
* fine-tuning (:mod:`repro.llm.finetune`) trains a real low-rank adapter
  (numpy logistic head over hashed n-gram code features) on the DRB-ML
  prompt–response pairs and blends it with the base model, mirroring the
  paper's QLoRA setup at simulation scale.

See DESIGN.md §2 for the substitution rationale.

The package re-exports its names lazily: the engine imports ``base`` alone,
without the featurisation, the analyzers and numpy that the rest pulls in.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "base": ("ChatMessage", "LanguageModel"),
    "features": ("CodeFeatures", "extract_code_from_prompt", "extract_features"),
    "behavior": ("BehaviorProfile", "HEURISTIC_TPR", "HEURISTIC_FPR", "profile_for"),
    "zoo": (
        "GPT35TurboSim",
        "GPT4Sim",
        "Llama2Sim",
        "StarChatBetaSim",
        "available_models",
        "create_model",
    ),
    "adapters": ("AsyncRemoteAdapter", "FlakyTailAdapter", "LowRankAdapter"),
    "finetune": ("FineTuneConfig", "FineTuner", "FineTunedModel", "fine_tune_all"),
}
__all__ = [name for names in _EXPORTS.values() for name in names]
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
