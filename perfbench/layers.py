"""Which headlab functions the traced run wraps, and the per-layer metrics.

Each function is wrapped at the name its callers look it up by: a function
imported into another module is wrapped there too (``headlab.runtime``
calls ``capture_step`` through its own module namespace, for instance).
A target that no longer exists is reported as absent, so a later rename
leaves the traced run working with fewer numbers.
"""

from __future__ import annotations

import importlib

import numpy as np

from spans import Tracer

CLI_SUBCOMMANDS = ("make-dataset", "train", "eval", "run", "simulate")


def _n(args, kwargs):
    return args[1] if len(args) > 1 else kwargs["n"]


def _campaign_arm(args, kwargs):
    return f"runtime.run.{args[2].mode}"


def _campaign_counts(args, kwargs, trace):
    mode = args[2].mode
    return {f"runtime.accepted.{mode}": 1,
            f"runtime.attempts.{mode}": trace.n_attempts,
            f"runtime.aborted.{mode}": trace.n_aborted,
            f"runtime.steps.{mode}": trace.total_steps,
            f"runtime.wasted_steps.{mode}": trace.total_steps - args[1].T}


# (span name, "module:attribute path" looked up by callers, counter function)
TARGETS = (
    ("engine.exact_epsilon", "headlab.engine:exact_epsilon", None),
    ("engine.ddim_step", "headlab.engine:ddim_step", None),
    ("engine.attention_map", "headlab.engine:attention_map", None),
    ("engine.capture_step", "headlab.engine:capture_step", None),
    ("engine.capture_step", "headlab.runtime:capture_step", None),
    ("engine.sample_with_capture", "headlab.dataset:sample_with_capture", None),
    ("scene.filter_responses", "headlab.scene:ObjectSpec.filter_responses", None),
    ("scene.build_conditional_mixture", "headlab.cli:build_conditional_mixture", None),
    ("scene.build_conditional_mixture", "headlab.dataset:build_conditional_mixture", None),
    ("rng.normals", "headlab.rng:SplitMix64.normals",
     lambda a, k, r: {"rng.normals.draws": _n(a, k)}),
    ("rng.uniforms", "headlab.rng:SplitMix64.uniforms",
     lambda a, k, r: {"rng.uniforms.draws": _n(a, k)}),
    ("tensorio.tensor_bytes", "headlab.dataset:tensor_bytes",
     lambda a, k, r: {"tensorio.tensor_bytes.bytes": 4 * np.size(a[0])}),
    ("tensorio.read_tensor", "headlab.dataset:read_tensor",
     lambda a, k, r: {"tensorio.read_tensor.bytes": r.nbytes}),
    ("dataset.generate_dataset", "headlab.cli:generate_dataset", None),
    ("dataset.label_image", "headlab.dataset:label_image", None),
    ("dataset.label_image", "headlab.runtime:label_image", None),
    ("dataset.load_captures", "headlab.detector:load_captures", None),
    ("dataset.load_manifest", "headlab.cli:load_manifest", None),
    ("detector.build_design_matrix", "headlab.cli:build_design_matrix",
     lambda a, k, r: {"detector.build_design_matrix.rows": r.x.shape[0]}),
    ("detector.extract_features", "headlab.detector:extract_features", None),
    ("detector.train_logistic", "headlab.detector:train_logistic", None),
    ("detector.live_features", "headlab.runtime:live_features", None),
    ("detector.scores", "headlab.detector:DetectorModel.scores", None),
    (_campaign_arm, "headlab.runtime:run_until_complete", _campaign_counts),
    ("runtime.measure_campaign", "headlab.cli:measure_campaign", None),
    ("timesaver.monte_carlo_cost", "headlab.cli:monte_carlo_cost", None),
    ("timesaver.expected_cost_closed_form",
     "headlab.cli:expected_cost_closed_form", None),
    ("timesaver.expected_cost_closed_form",
     "headlab.timesaver:expected_cost_closed_form", None),
)

# Generators get one span per item; each item with a noise prediction is one
# denoising step.
GENERATOR_TARGETS = (
    ("engine.trajectory", "headlab.engine:trajectory"),
    ("engine.trajectory", "headlab.runtime:trajectory"),
)


def _owner(target: str):
    """The object holding the target's last attribute (None if absent), and
    that attribute's name."""
    module_name, _, path = target.partition(":")
    *parents, attr = path.split(".")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None, attr
    for part in parents:
        owner = getattr(owner, part, None)
    return owner, attr


def install(tracer: Tracer) -> list[str]:
    """Wrap every target that exists; returns the absent ones.

    :meth:`Tracer.restore` undoes the wrapping.
    """
    absent = []
    for name, target, count in TARGETS:
        owner, attr = _owner(target)
        if owner is None or not tracer.wrap(owner, attr, name, count):
            absent.append(target)
    for name, target in GENERATOR_TARGETS:
        owner, attr = _owner(target)
        if owner is None or not tracer.wrap_generator(
                owner, attr, name,
                lambda item: {"engine.trajectory.steps": item[2] is not None}):
            absent.append(target)
    return absent


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _span_metrics(stats) -> dict[str, float]:
    out = {}
    for name, stat in stats.items():
        out[f"{name}.calls"] = stat.calls
        out[f"{name}.s"] = stat.total_s
        out[f"{name}.self_s"] = stat.self_s
    return out


# (metric, unit); BENCHMARK.json lists the same names in the same order.
PER_LAYER = (
    [(f"engine.exact_epsilon.{m}", u) for m, u in
     (("calls", "count"), ("self_s", "s"), ("us_per_call", "us"))]
    + [(f"engine.{f}.{m}", u) for f in ("ddim_step", "attention_map", "capture_step")
       for m, u in (("calls", "count"), ("self_s", "s"))]
    + [("engine.trajectory.steps", "count"), ("engine.trajectory.self_s", "s"),
       ("engine.sample_with_capture.self_s", "s"),
       ("engine.posterior_evals_per_step", "ratio"),
       ("scene.filter_responses.calls", "count"),
       ("scene.filter_responses.self_s", "s"),
       ("scene.build_conditional_mixture.calls", "count"),
       ("scene.build_conditional_mixture.s", "s")]
    + [(f"rng.{f}.{m}", u) for f in ("normals", "uniforms")
       for m, u in (("draws", "count"), ("self_s", "s"))]
    + [(f"tensorio.{f}.{m}", u) for f in ("tensor_bytes", "read_tensor")
       for m, u in (("calls", "count"), ("bytes", "bytes"), ("self_s", "s"))]
    + [("dataset.generate_dataset.s", "s"), ("dataset.generate_dataset.self_s", "s"),
       ("dataset.files_written", "count"), ("dataset.payload_bytes", "bytes"),
       ("dataset.disk_bytes", "bytes"), ("dataset.payload_ratio", "ratio"),
       ("dataset.label_image.calls", "count"), ("dataset.label_image.self_s", "s"),
       ("dataset.load_captures.calls", "count"),
       ("dataset.load_captures.self_s", "s"), ("dataset.load_manifest.s", "s"),
       ("detector.build_design_matrix.calls", "count"),
       ("detector.build_design_matrix.rows", "count"),
       ("detector.build_design_matrix.self_s", "s")]
    + [(f"detector.{f}.{m}", u)
       for f in ("extract_features", "live_features", "scores")
       for m, u in (("calls", "count"), ("self_s", "s"))]
    + [("detector.train_logistic.calls", "count"),
       ("detector.train_logistic.s", "s")]
    + [(f"runtime.{m}.{arm}", u)
       for m, u in (("s_per_accept", "s"), ("attempts", "count"),
                    ("accept_ratio", "ratio"), ("wasted_step_share", "ratio"))
       for arm in ("head", "baseline")]
    + [("runtime.aborted.head", "count"), ("runtime.wall_saving", "ratio"),
       ("runtime.measure_campaign.self_s", "s"),
       ("timesaver.monte_carlo_cost.calls", "count"),
       ("timesaver.monte_carlo_cost.s", "s"),
       ("timesaver.monte_carlo_cost.self_s", "s"),
       ("timesaver.expected_cost_closed_form.s", "s")]
    + [(f"cli.{c}.{m}", "s") for c in CLI_SUBCOMMANDS for m in ("s", "self_s")]
    + [("trace.overhead_s", "s"), ("trace.absent_targets", "count")]
)


def per_layer_metrics(stats, counters, dataset_files: dict[str, float],
                      overhead_s: float, absent: int) -> dict[str, float]:
    """Every PER_LAYER metric from span statistics and counters.

    A metric whose layer did no work on the workload reads 0.
    """
    raw = {**_span_metrics(stats), **counters, **dataset_files}
    get = lambda key: raw.get(key, 0)  # noqa: E731
    derived = {
        "engine.exact_epsilon.us_per_call":
            1e6 * _ratio(get("engine.exact_epsilon.s"),
                         get("engine.exact_epsilon.calls")),
        "engine.posterior_evals_per_step":
            _ratio(get("engine.exact_epsilon.calls")
                   + get("engine.attention_map.calls"),
                   get("engine.trajectory.steps")),
        "trace.overhead_s": overhead_s,
        "trace.absent_targets": absent,
    }
    for arm in ("head", "baseline"):
        accepted = get(f"runtime.accepted.{arm}")
        derived[f"runtime.s_per_accept.{arm}"] = _ratio(
            get(f"runtime.run.{arm}.s"), accepted)
        derived[f"runtime.accept_ratio.{arm}"] = _ratio(
            accepted, get(f"runtime.attempts.{arm}"))
        derived[f"runtime.wasted_step_share.{arm}"] = _ratio(
            get(f"runtime.wasted_steps.{arm}"), get(f"runtime.steps.{arm}"))
    derived["runtime.wall_saving"] = (
        1.0 - _ratio(derived["runtime.s_per_accept.head"],
                     derived["runtime.s_per_accept.baseline"])
        if derived["runtime.s_per_accept.baseline"] else 0.0)
    raw.update(derived)
    return {name: float(get(name)) for name, _ in PER_LAYER}
