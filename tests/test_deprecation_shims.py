"""Retired front-end spellings: gone for good, loudly.

The PR-4 engine refactor kept three legacy call shapes alive for one
release behind ``DeprecationWarning``:

- ``FrontEnd.run(records, warmup)`` with a positional int where
  ``options`` now goes;
- ``FrontEnd.run_with_config_warmup(records, config, hint)``, whose
  warm-up rule moved to ``RunOptions.from_config_warmup``;
- ``repro.frontend.engine._build_policies``, the private alias of
  :func:`repro.frontend.engine.build_policies`.

That release has shipped and the shims are retired.  These tests pin
the *removal*: the old spellings must fail immediately (not silently
change meaning), and the supported spellings must cover everything the
shims used to do.

The single-file result store went the same way, without a shim: the
content-addressed cache behind ``SweepScheduler`` is the one durable
store, so ``repro.experiments.store`` no longer imports and the flags
that fed it (``grid --resume``, ``grid --checkpoint-every``,
``report --store``) are usage errors; ``--cache-dir`` replaces them.

``TokenCache``, a token memo nothing in the package instantiated, is
gone from the kernel package and the facade: callers tokenize once with
``tokenize_trace`` and reuse the ``TraceTokens``.

Release 1.3.0 removed the modules no entry point reached (the victim
buffer, the two-level BTB, suite materialization, the direction-predictor
registry with gshare, and lint baselines) and the one-value
``FrontEndConfig.direction_predictor`` option.
"""

from __future__ import annotations

from dataclasses import asdict

import importlib

import pytest

import repro.frontend.engine as engine_module
from repro.cli import main
from repro.frontend.config import FrontEndConfig
from repro.frontend.engine import build_frontend
from repro.frontend.options import RunOptions
from repro.workloads.suite import Category, make_workload

WARMUP = 1_000


@pytest.fixture(scope="module")
def config():
    return FrontEndConfig(icache_policy="ghrp", btb_policy="ghrp")


@pytest.fixture(scope="module")
def records(config):
    workload = make_workload(
        "shims", Category.SHORT_SERVER, seed=7, trace_scale=0.02
    )
    return list(workload.records())


@pytest.mark.parametrize("engine", ["reference", "fast"])
def test_positional_warmup_rejected(config, records, engine):
    """A bare int where ``options`` goes fails fast, not silently."""
    frontend = build_frontend(config, engine=engine)
    with pytest.raises((TypeError, AttributeError)):
        frontend.run(iter(records), WARMUP)


def test_run_with_config_warmup_removed(config, records):
    frontend = build_frontend(config)
    assert not hasattr(frontend, "run_with_config_warmup")
    # The supported spelling carries the shim's whole contract.
    hint = len(records)
    result = frontend.run(iter(records), RunOptions.from_config_warmup(config, hint))
    baseline = build_frontend(config).run(
        iter(records), RunOptions.from_config_warmup(config, hint)
    )
    assert asdict(result) == asdict(baseline)


def test_build_policies_private_alias_removed(config):
    assert not hasattr(engine_module, "_build_policies")
    # The public spelling wires GHRP sharing: one predictor instance
    # shared by the I-cache and BTB policies.
    icache_policy, btb_policy, ghrp = engine_module.build_policies(config)
    assert ghrp is not None
    assert icache_policy.predictor is ghrp
    assert btb_policy.predictor is ghrp


def test_token_cache_removed():
    import repro
    import repro.api as api
    import repro.kernel as kernel
    import repro.kernel.tokenizer as tokenizer

    for module in (repro, api, kernel, tokenizer):
        assert "TokenCache" not in module.__all__
        assert not hasattr(module, "TokenCache")


def test_result_store_module_removed():
    with pytest.raises(ImportError):
        importlib.import_module("repro.experiments.store")


@pytest.mark.parametrize("argv", [
    ["grid", "--resume", "store.json"],
    ["grid", "--checkpoint-every", "2"],
    ["report", "--store", "results-store.json"],
])
def test_result_store_flags_rejected(argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("name", [
    "repro.cache.victim",
    "repro.btb.two_level",
    "repro.workloads.materialize",
    "repro.branch.registry",
    "repro.branch.gshare",
    "repro.analysis.lint.baseline",
])
def test_unreached_modules_removed(name):
    with pytest.raises(ImportError):
        importlib.import_module(name)


def test_direction_predictor_option_removed():
    with pytest.raises(TypeError):
        FrontEndConfig(direction_predictor="gshare")
