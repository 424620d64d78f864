import dataclasses
import importlib

import pytest

import hwtv

BOUNDARY = [
    "BlurSpec",
    "DegradationSpec",
    "DimensionMismatchError",
    "DivergenceError",
    "FormatError",
    "ImageBuffer",
    "InfiniteIsnrError",
    "PhantomSpec",
    "RestoreResult",
    "SolverConfig",
    "TraceRow",
    "add_awgn",
    "degrade",
    "isnr",
    "make_phantom",
    "read_image",
    "restore",
    "ssim",
    "write_image",
    "write_trace_csv",
]

# Loop primitives: importable from their modules, not from the package.
PRIMITIVES = [
    ("linops", "SpectralPlan"),
    ("linops", "build_plan"),
    ("linops", "make_kernel"),
    ("linops", "gradient"),
    ("linops", "divergence"),
    ("linops", "pointwise_norm"),
    ("linops", "box_mean"),
    ("solver", "prox_t"),
    ("adapt", "alpha_from_norms"),
    ("adapt", "update_mu"),
]


def test_all_is_the_library_boundary():
    assert sorted(hwtv.__all__) == sorted(BOUNDARY)
    for name in BOUNDARY:
        assert getattr(hwtv, name) is not None


@pytest.mark.parametrize("module,name", PRIMITIVES)
def test_primitive_imports_from_its_module(module, name):
    assert name not in hwtv.__all__
    assert hasattr(importlib.import_module(f"hwtv.{module}"), name)


@pytest.mark.parametrize("module,name", [("solver", "update_w"), ("adapt", "estimate_alpha")])
def test_folded_wrapper_is_gone(module, name):
    assert not hasattr(importlib.import_module(f"hwtv.{module}"), name)


def test_blur_spec_has_no_identity_flag():
    # K = I is the band-1 kernel, the default; there is no second spelling.
    assert [f.name for f in dataclasses.fields(hwtv.BlurSpec)] == ["band", "sigma"]
    assert hwtv.BlurSpec().band == 1
    with pytest.raises(TypeError):
        hwtv.BlurSpec(identity=True)


def test_solver_config_has_no_prox_choice():
    # p = 1 always runs the exact soft-threshold; there is nothing to pick.
    assert [f.name for f in dataclasses.fields(hwtv.SolverConfig)] == [
        "p", "tau", "r", "mode", "beta_t", "beta_w", "eps_floor", "max_iter", "tol",
    ]
    with pytest.raises(TypeError):
        hwtv.SolverConfig(p=2, tau=1.0, r=2, aniso_prox="exact")
    assert not hasattr(importlib.import_module("hwtv.solver"), "PROX_VARIANTS")


def test_read_image_is_the_only_format_sniffer():
    # read_image dispatches on the magic bytes; no separate detector remains.
    assert not hasattr(hwtv, "detect_format")
    assert not hasattr(importlib.import_module("hwtv.imgcore"), "detect_format")
