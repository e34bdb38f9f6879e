"""The names and counts the benchmark relies on still hold in the package.

``bench/layertrace.py`` wraps every function listed in its ``LAYERS`` table
and reads the (seed, method) of each task from fixed argument positions. A
rename in the package would otherwise only surface when the traced benchmark
runs, as "trace: no references found". ``bench/test_bench.py`` also pins
how often ``metrics.auc`` runs, which the sweep's call rule below fixes;
those bench tests are slow and run apart from this suite.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

import deferbench  # noqa: F401 - loaded before the tracer module imports numpy
import numpy as np
from deferbench import losses, metrics, nnet, pipelines, sweep
from deferbench.config import CorruptionSettings, RunConfig, SweepSettings, UqSettings
from deferbench.data import SynthSpec
from deferbench.losses import LossSpec

LAYERTRACE = Path(__file__).resolve().parents[1] / "bench" / "layertrace.py"


def load_layers() -> dict:
    spec = importlib.util.spec_from_file_location("layertrace_contract", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


LAYERS = load_layers()


@pytest.mark.parametrize(
    "module_name, attr_path",
    sorted({target for targets in LAYERS.values() for target in targets}),
)
def test_every_traced_layer_resolves(module_name, attr_path):
    value = importlib.import_module(f"deferbench.{module_name}")
    for part in attr_path.split("."):
        value = getattr(value, part)
    assert callable(value)


@pytest.mark.parametrize(
    "module_name, name, owner_name",
    [
        ("sweep", "auc", "metrics"),
        ("sweep", "deferral_curve_point", "metrics"),
        ("pipelines", "pauc", "metrics"),
        ("sweep", "two_stage_features", "pipelines"),
    ],
)
def test_names_the_tracer_rebinds_stay_imported(module_name, name, owner_name):
    """``bench/test_bench.py`` asserts that the tracer rebinds these
    module-level imports to its wrapped functions. Dropping one of them
    fails the benchmark's own test, which only a change to the benchmark may
    edit, and that test runs apart from this suite; so the premise is
    checked here, on every run."""
    module = importlib.import_module(f"deferbench.{module_name}")
    owner = importlib.import_module(f"deferbench.{owner_name}")
    assert getattr(module, name, None) is getattr(owner, name)


@pytest.mark.parametrize("name, start", [("run_method", 2), ("_worker", 1)])
def test_task_entry_points_keep_seed_and_method_positions(name, start):
    params = list(inspect.signature(getattr(sweep, name)).parameters)
    assert params[start : start + 2] == ["seed_index", "method"]


def test_uq_sweep_never_calls_auc(monkeypatch):
    # bench/test_bench.py pins metrics.auc.calls of whole runs; this is the
    # per-sweep rule behind that count. A threshold sweep scores the AUC of
    # all its kept sets from one sort, so auc runs only for classification
    # rows and learned-deferral points, and the count no longer grows with
    # the number of thresholds.
    original = metrics.auc
    calls = counted(monkeypatch, original)
    assert sweep.auc is not original

    rng = np.random.default_rng(0)
    scores = rng.random(60)
    uncertainty = np.round(rng.random(60), 1)  # tied uncertainties repeat kept sets
    labels = (rng.random(60) < 0.3).astype(np.int64)
    points = sweep.uq_sweep(scores, uncertainty, labels, 40)

    assert calls == []
    kept = [uncertainty < point.param_value for point in points]
    assert [point.auc for point in points] == [
        original(scores[k], labels[k]) if k.any() else None for k in kept
    ]


def counted(monkeypatch, original) -> list:
    """The arguments of every later call of original, from any deferbench
    module that holds a reference to it, as the tracer rebinds them."""
    calls = []

    def counting(*args):
        calls.append(args)
        return original(*args)

    for name, module in sorted(sys.modules.items()):
        if name.startswith("deferbench"):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counting)
    return calls


def test_two_stage_featurizes_each_input_once(monkeypatch):
    # bench/test_bench.py pins pipelines.two_stage_features.calls of whole
    # runs; this is the per-task rule behind that count: the committee sees
    # each input array once, and every head of the grid reads its features.
    featurized = counted(monkeypatch, pipelines.two_stage_features)
    predicted = counted(monkeypatch, pipelines.predict_extended)

    cfg = RunConfig(
        methods=("two_stage",),
        data=SynthSpec(n_samples=300, positive_fraction=0.1, spatial_shape=(4, 4, 1)),
        hidden_dims=(4,),
        sgd=nnet.SgdConfig(learning_rate=0.05, batch_size=64, epochs=2),
        uq=UqSettings(n_members=2, threshold_steps=5),
        sweep=SweepSettings(beta_grid=(1.0, 0.5, 0.25), head_hidden_dims=(4,)),
        corruption=CorruptionSettings(levels=1),
    )
    data = sweep.build_eval_data(cfg)
    members = [
        nnet.init_network(nnet.NetConfig(data.input_dim, (4,), 2, seed=k)) for k in range(2)
    ]
    sweep.run_method(cfg, data, 0, "two_stage", members=members)

    inputs = [data.x_train, data.x_val, *data.x_tests.values()]
    assert len(data.x_tests) >= 2
    assert len(featurized) == len(inputs)
    # each input once, found by its bytes: a corrupted condition is a new
    # array on every read, so no featurized batch can be the same object
    for x in inputs:
        assert sum(batch.tobytes() == x.tobytes() for _, batch in featurized) == 1
    assert len(predicted) == len(cfg.sweep.beta_grid) * (1 + len(data.x_tests))


def recording(calls: list, name: str, original):
    def record(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    return record


def test_each_traced_loss_call_runs_one_kernel(monkeypatch):
    # bench/layertrace.py counts LossSpec.loss + LossSpec.grad as
    # losses.loss_grad. That count stays the number of loss evaluations only
    # if each call runs one kernel, neither method goes through the other,
    # and each of nnet's one-batch helpers makes one call.
    calls = []
    kernels = {
        "cross_entropy": "_kernel_cross_entropy",
        "one_stage": "_kernel_one_stage",
        "two_stage": "_kernel_two_stage",
    }
    for name in kernels.values():
        monkeypatch.setattr(losses, name, recording(calls, name, getattr(losses, name)))
    for name in ("loss", "grad"):
        monkeypatch.setattr(LossSpec, name, recording(calls, name, getattr(LossSpec, name)))

    rng = np.random.default_rng(0)
    targets = np.array([0, 1, 0, 1, 1])
    logits = rng.standard_normal((5, 3))
    specs = [LossSpec("cross_entropy"), LossSpec("one_stage", alpha=0.5),
             LossSpec("two_stage", beta=1.0)]
    for spec in specs:
        for method in ("loss", "grad"):
            calls.clear()
            getattr(spec, method)(logits, targets)
            assert calls == [method, kernels[spec.kind]]

    net = nnet.init_network(nnet.NetConfig(4, (3,), 3, seed=0))
    x = rng.standard_normal((5, 4))
    for spec in specs:
        calls.clear()
        nnet.mean_loss(net, x, targets, spec)
        assert calls == ["loss", kernels[spec.kind]]
        calls.clear()
        nnet.backward(net, x, targets, spec)
        assert calls == ["grad", kernels[spec.kind]]
