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

# What each library module defines for its callers: its public functions and
# classes, and its upper-case constants. The loop primitives among them are
# imported from their modules, not from the package. A name joins or leaves
# the surface by an edit here.
SURFACE = {
    "adapt": ["alpha_from_norms", "update_mu"],
    "imgcore": [
        "FORMATS", "FormatError", "ImageBuffer", "PGM8", "RAW_F32",
        "isnr", "read_image", "ssim", "write_image",
    ],
    "linops": [
        "BlurSpec", "SpectralPlan", "blur_via_plan", "box_mean", "build_plan", "divergence",
        "gradient", "half_spectrum_norm", "make_kernel", "pointwise_norm", "spectral_step",
        "step_factors",
    ],
    "solver": [
        "DivergenceError", "EPS_FLOOR", "MODES", "RestoreResult", "SolverConfig", "TraceRow",
        "prox_t", "restore",
    ],
    "synth": ["DegradationSpec", "PHANTOM_KINDS", "PhantomSpec", "degrade", "make_phantom"],
}

REQUIRED = dataclasses.MISSING
# Each boundary record's fields, in order, with their defaults; a field with a
# default factory is listed with what the factory returns.
FIELDS = {
    "BlurSpec": {"band": 1, "sigma": 1.0},
    "DegradationSpec": {"blur": REQUIRED, "sigma": REQUIRED, "seed": 0},
    "PhantomSpec": {"width": REQUIRED, "height": REQUIRED, "kind": REQUIRED, "texture_freq": 8.0},
    "SolverConfig": {
        "p": REQUIRED, "tau": REQUIRED, "r": REQUIRED, "mode": "hwtv",
        "beta_t": 20.0, "beta_w": 100.0, "max_iter": 500, "tol": 1e-5,
    },
    "RestoreResult": {
        "u_star": REQUIRED, "iterations": REQUIRED, "final_mu": REQUIRED,
        "final_discrepancy": REQUIRED, "alpha_final": REQUIRED, "trace": [],
    },
}

# The buffers each loop primitive takes last, defaulting to None: ``out=`` the
# result (``spectral_step``'s is the pair it returns), ``scratch=`` workspace.
# No other parameter defaults to None, so a third convention fails here.
BUFFERS = {
    "adapt.alpha_from_norms": ["out", "scratch"],
    "linops.box_mean": ["out", "scratch"],
    "linops.divergence": ["out", "scratch"],
    "linops.gradient": ["out"],
    "linops.pointwise_norm": ["out", "scratch"],
    "linops.spectral_step": ["out"],
    "solver.prox_t": ["out", "scratch"],
}


def test_all_is_the_library_boundary():
    assert len(BOUNDARY) == 16
    assert sorted(hwtv.__all__) == sorted(BOUNDARY)
    for name in BOUNDARY:
        assert getattr(hwtv, name) is not None


def test_package_namespace_is_the_boundary():
    # besides its modules, the package holds the exported names and no other
    public = [name for name, value in vars(hwtv).items()
              if not name.startswith("_") and not inspect.ismodule(value)]
    assert sorted(public) == sorted(BOUNDARY)


@pytest.mark.parametrize("module_name", sorted(SURFACE))
def test_module_surface(module_name):
    module = importlib.import_module(f"hwtv.{module_name}")
    defined = [
        name for name, value in vars(module).items()
        if not name.startswith("_") and (
            name.isupper()
            or ((inspect.isfunction(value) or inspect.isclass(value))
                and value.__module__ == module.__name__)
        )
    ]
    assert sorted(defined) == SURFACE[module_name]


@pytest.mark.parametrize("record", sorted(FIELDS))
def test_record_fields(record):
    cls = getattr(hwtv, record)
    fields = {
        f.name: f.default if f.default_factory is REQUIRED else f.default_factory()
        for f in dataclasses.fields(cls)
    }
    assert fields == FIELDS[record]
    # the constructor takes exactly these names, in this order
    assert list(inspect.signature(cls).parameters) == list(FIELDS[record])


@pytest.mark.parametrize("primitive", sorted(BUFFERS))
def test_buffer_keywords(primitive):
    module_name, _, name = primitive.partition(".")
    function = getattr(importlib.import_module(f"hwtv.{module_name}"), name)
    params = list(inspect.signature(function).parameters.values())
    buffers = BUFFERS[primitive]
    assert [param.name for param in params[-len(buffers):]] == buffers
    assert [param.name for param in params if param.default is None] == buffers


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


def _private_definitions(tree):
    # Module-level functions, classes and constants named with one leading
    # underscore.
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [target.id for target in node.targets if isinstance(target, ast.Name)]
        else:
            continue
        yield from (name for name in names if name.startswith("_") and not name.startswith("__"))


def test_every_private_helper_is_used():
    # A private helper that lost its last caller is dead code: each one must
    # be read, as a name, an attribute or an import, in some source file.
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
    unused = sorted(
        f"{path.parent.name}/{path.name}: {name}"
        for path, tree in trees.items() for name in _private_definitions(tree)
        if name not in read
    )
    assert not unused, "unused private helpers: " + ", ".join(unused)


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
