import ast
import dataclasses
import importlib
import inspect
import pathlib

import pytest

import hwtv

BOUNDARY = [
    "BlurSpec",
    "DegradationSpec",
    "DivergenceError",
    "FormatError",
    "ImageBuffer",
    "PhantomSpec",
    "RestoreResult",
    "SolverConfig",
    "TraceRow",
    "degrade",
    "isnr",
    "make_phantom",
    "read_image",
    "restore",
    "ssim",
    "write_image",
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
    assert len(BOUNDARY) == 16
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
        "p", "tau", "r", "mode", "beta_t", "beta_w", "max_iter", "tol",
    ]
    with pytest.raises(TypeError):
        hwtv.SolverConfig(p=2, tau=1.0, r=2, aniso_prox="exact")
    assert not hasattr(importlib.import_module("hwtv.solver"), "PROX_VARIANTS")


def test_eps_floor_is_a_constant():
    # the weight floor is fixed; SolverConfig carries only what a caller varies
    assert importlib.import_module("hwtv.solver").EPS_FLOOR == 1e-4
    with pytest.raises(TypeError):
        hwtv.SolverConfig(p=2, tau=1.0, r=2, eps_floor=1e-3)


def test_phantom_spec_has_no_contrast():
    assert [f.name for f in dataclasses.fields(hwtv.PhantomSpec)] == [
        "width", "height", "kind", "texture_freq",
    ]
    with pytest.raises(TypeError):
        hwtv.PhantomSpec(width=64, height=64, kind="mixed", contrast=0.5)


@pytest.mark.parametrize("name", ["add_awgn", "InfiniteIsnrError", "DimensionMismatchError"])
def test_removed_name_is_gone(name):
    # degrade adds the noise, isnr returns inf, a shape mismatch is a ValueError
    assert not hasattr(hwtv, name)
    for module in ("imgcore", "synth"):
        assert not hasattr(importlib.import_module(f"hwtv.{module}"), name)


@pytest.mark.parametrize("name", ["write_trace_csv", "TRACE_FIELDS"])
def test_trace_csv_writer_is_gone(name):
    # the CLI writes the trace; the library returns it as TraceRow rows
    assert not hasattr(hwtv, name)
    assert not hasattr(importlib.import_module("hwtv.solver"), name)


def test_read_image_is_the_only_format_sniffer():
    # read_image dispatches on the magic bytes; no separate detector remains.
    assert not hasattr(hwtv, "detect_format")
    assert not hasattr(importlib.import_module("hwtv.imgcore"), "detect_format")


ROOT = pathlib.Path(__file__).resolve().parent.parent
# bench/ is left out: it is the benchmark's own code, not the project's.
SOURCES = [path for folder in ("src/hwtv", "tests", "scripts")
           for path in sorted(ROOT.glob(f"{folder}/*.py"))]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: f"{path.parent.name}/{path.name}")
def test_every_import_is_used(path):
    # The project carries no linter, so this stands in for one check of it:
    # every imported name must be read somewhere in its file.
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # "import a.b" binds the name a.
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        # names listed in __all__ are exported, which counts as a read
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            read.update(ast.literal_eval(node.value))
    unused = sorted(name for name in imported if name not in read)
    assert not unused, f"unused imports in {path.name}: " + ", ".join(
        f"{name} (line {imported[name]})" for name in unused
    )


# Span names that bench/run.py maps but that name no function or class today,
# so the metric each one feeds reads 0. No further name may join them.
STALE_SPANS = {
    "solver.update_w",
    "adapt.AlphaMap",
    "adapt.estimate_alpha",
    "linops.solve_u",
    "linops.blur_adjoint_via_plan",
    "linops.GradientField",
}


def _bench_span_names():
    # The constant span names of ROOT_SPAN, SELF_STAGES and PER_CALL_MS, and
    # the literal first argument of every per_iter( and whole_run( call.
    tree = ast.parse((ROOT / "bench" / "run.py").read_text())
    assigned = {
        target.id: node.value
        for node in tree.body if isinstance(node, ast.Assign)
        for target in node.targets if isinstance(target, ast.Name)
    }
    nodes = [assigned["ROOT_SPAN"], *assigned["SELF_STAGES"].values,
             *assigned["PER_CALL_MS"].values]
    nodes += [
        node.args[0] for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id in ("per_iter", "whole_run") and node.args
    ]
    names = {node.value for node in nodes if isinstance(node, ast.Constant)}
    return sorted(name for name in names if not name.startswith("fft."))


def test_bench_spans_resolve():
    # The benchmark traces a function or class as "<module>.<name>"; a rename
    # or move would silently zero the metric that reads its span.
    missing = []
    for span in _bench_span_names():
        module_name, _, name = span.partition(".")
        module = importlib.import_module(f"hwtv.{module_name}")
        value = getattr(module, name, None)
        if not (inspect.isfunction(value) or inspect.isclass(value)) or (
            value.__module__ != module.__name__
        ):
            missing.append(span)
    assert sorted(set(missing) - STALE_SPANS) == []
