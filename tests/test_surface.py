import ast
import dataclasses
import graphlib
import importlib
import inspect
import pathlib

import numpy as np
import pytest

import hwtv
from hwtv import (
    BlurSpec, DegradationSpec, ImageBuffer, PhantomSpec, SolverConfig, degrade, isnr, restore,
    solver, ssim,
)
from hwtv.linops import build_plan

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
# classes, and its upper-case constants. Besides the boundary, that is the
# constants the CLI reads (MODES, FORMATS, PGM8, RAW_F32) and the loop
# primitives bench/run.py traces by name (prox_t, update_mu, box_mean,
# pointwise_norm, gradient, divergence, blur_via_plan, build_plan), which
# test_bench_spans_resolve needs; every other loop helper is private. The
# primitives are imported from their modules, not from the package. A name
# joins or leaves the surface by an edit here.
SURFACE = {
    "adapt": ["update_mu"],
    "imgcore": [
        "FORMATS", "FormatError", "ImageBuffer", "PGM8", "RAW_F32",
        "isnr", "read_image", "ssim", "write_image",
    ],
    "linops": [
        "BlurSpec", "blur_via_plan", "box_mean", "build_plan", "divergence", "gradient",
        "pointwise_norm",
    ],
    "solver": [
        "DivergenceError", "MODES", "RestoreResult", "SolverConfig", "TraceRow", "prox_t",
        "restore",
    ],
    "synth": ["DegradationSpec", "PhantomSpec", "degrade", "make_phantom"],
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
    "RestoreResult": {"u_star": REQUIRED, "alpha_final": REQUIRED, "trace": REQUIRED},
}

NAN, INF = float("nan"), float("inf")
# Valid arguments for the callables whose rows name only the bad ones: a
# row's arguments are laid over these, so they alone are what is rejected.
VALID = {
    DegradationSpec: {"blur": BlurSpec(band=1), "sigma": 0.1},
    degrade: {"u": ImageBuffer(np.full((8, 8), 0.5)), "spec": DegradationSpec(BlurSpec(), 0.1)},
    PhantomSpec: {"width": 64, "height": 64, "kind": "texture"},
    SolverConfig: {"p": 2, "tau": 1.0, "r": 2},
    restore: {
        "g": ImageBuffer(np.full((8, 8), 0.5)), "blur": BlurSpec(band=1), "sigma": 0.1,
        "cfg": SolverConfig(p=2, tau=1.0, r=2),
    },
}
# Each input the library boundary rejects: the callable, the arguments that
# make it bad (over VALID's), the exception and a fragment of its message.
# An invariant joins the boundary by a row here.
REJECTED = {
    "SolverConfig-p-3": (SolverConfig, {"p": 3}, ValueError, "p must be the integer 1 or 2"),
    "SolverConfig-p-float": (SolverConfig, {"p": 2.0}, ValueError, "integer"),
    "SolverConfig-p-bool": (SolverConfig, {"p": True}, ValueError, "integer"),
    "SolverConfig-tau-negative":
        (SolverConfig, {"tau": -1.0}, ValueError, "tau must be finite and positive"),
    "SolverConfig-tau-nan": (SolverConfig, {"tau": NAN}, ValueError, "tau"),
    "SolverConfig-tau-inf": (SolverConfig, {"tau": INF}, ValueError, "tau"),
    "SolverConfig-tau-bool": (SolverConfig, {"tau": True}, ValueError, "tau"),
    "SolverConfig-tau-str": (SolverConfig, {"tau": "1"}, ValueError, "tau .* got '1'"),
    # an int above the float range is rejected, not converted with an OverflowError
    "SolverConfig-tau-huge-int": (SolverConfig, {"tau": 10**400}, ValueError, "tau"),
    "SolverConfig-r-fractional": (SolverConfig, {"r": 2.5}, ValueError, "integer"),
    "SolverConfig-r-float": (SolverConfig, {"r": 2.0}, ValueError, "integer"),
    "SolverConfig-r-bool": (SolverConfig, {"r": True}, ValueError, "integer"),
    "SolverConfig-r-zero": (SolverConfig, {"r": 0}, ValueError, "r must be an integer >= 1"),
    "SolverConfig-mode-other": (SolverConfig, {"mode": "other"}, ValueError, "mode must be"),
    "SolverConfig-beta_t-zero": (SolverConfig, {"beta_t": 0.0}, ValueError, "beta_t"),
    "SolverConfig-beta_t-negative": (SolverConfig, {"beta_t": -1.0}, ValueError, "beta_t"),
    "SolverConfig-beta_t-nan": (SolverConfig, {"beta_t": NAN}, ValueError, "beta_t"),
    "SolverConfig-beta_t-inf": (SolverConfig, {"beta_t": INF}, ValueError, "beta_t"),
    "SolverConfig-beta_t-bool": (SolverConfig, {"beta_t": True}, ValueError, "beta_t"),
    "SolverConfig-beta_t-str": (SolverConfig, {"beta_t": "1"}, ValueError, "beta_t .* got '1'"),
    "SolverConfig-beta_w-zero": (SolverConfig, {"beta_w": 0.0}, ValueError, "beta_w"),
    "SolverConfig-beta_w-negative": (SolverConfig, {"beta_w": -1.0}, ValueError, "beta_w"),
    "SolverConfig-beta_w-nan": (SolverConfig, {"beta_w": NAN}, ValueError, "beta_w"),
    "SolverConfig-beta_w-inf": (SolverConfig, {"beta_w": INF}, ValueError, "beta_w"),
    "SolverConfig-beta_w-bool": (SolverConfig, {"beta_w": True}, ValueError, "beta_w"),
    "SolverConfig-beta_w-str": (SolverConfig, {"beta_w": "1"}, ValueError, "beta_w .* got '1'"),
    # each penalty is finite and positive, but the u step's ratio is not
    "SolverConfig-beta-ratio-overflow":
        (SolverConfig, {"beta_t": 1e-300, "beta_w": 1e300}, ValueError, "beta_w / beta_t"),
    "SolverConfig-beta-ratio-underflow":
        (SolverConfig, {"beta_t": 1e300, "beta_w": 1e-300}, ValueError, "beta_w / beta_t"),
    "SolverConfig-max_iter-fractional": (SolverConfig, {"max_iter": 2.5}, ValueError, "integer"),
    "SolverConfig-max_iter-bool": (SolverConfig, {"max_iter": True}, ValueError, "integer"),
    "SolverConfig-max_iter-zero":
        (SolverConfig, {"max_iter": 0}, ValueError, "max_iter must be an integer >= 1"),
    "SolverConfig-max_iter-float":
        (SolverConfig, {"max_iter": 2.0}, ValueError, "max_iter must be an integer >= 1"),
    "SolverConfig-tol-nan": (SolverConfig, {"tol": NAN}, ValueError, "tol"),
    "SolverConfig-tol-inf": (SolverConfig, {"tol": INF}, ValueError, "tol"),
    "SolverConfig-tol-bool": (SolverConfig, {"tol": True}, ValueError, "tol"),
    "SolverConfig-tol-str": (SolverConfig, {"tol": "1"}, ValueError, "tol .* got '1'"),
    "restore-g-array":
        (restore, {"g": np.full((8, 8), 0.5)}, ValueError, "g must be an ImageBuffer"),
    "restore-cfg-none": (restore, {"cfg": None}, ValueError, "cfg must be a SolverConfig"),
    "restore-window-oversized": (restore, {
        "g": ImageBuffer(np.random.default_rng(9).random((32, 32))),
        "cfg": SolverConfig(p=2, tau=1.0, r=16, mode="hwtv"),
    }, ValueError, "window"),
    "restore-sigma-zero": (restore, {"sigma": 0.0}, ValueError, "sigma"),
    "restore-sigma-nan": (restore, {"sigma": NAN}, ValueError, "sigma"),
    "restore-sigma-inf": (restore, {"sigma": INF}, ValueError, "sigma"),
    "restore-sigma-bool": (restore, {"sigma": True}, ValueError, "sigma"),
    "restore-sigma-str": (restore, {"sigma": "1"}, ValueError, "sigma .* got '1'"),
    "restore-sigma-huge-int": (restore, {"sigma": 10**400}, ValueError, "sigma"),
    "restore-blur-none": (restore, {"blur": None}, ValueError, "blur must be a BlurSpec"),
    "restore-kernel-oversized":
        (restore, {"blur": BlurSpec(band=9)}, ValueError, "larger than image"),
    # tau and sigma each pass their checks, but tau * sigma * sqrt(n) is 0
    "restore-target-underflow": (restore, {
        "sigma": 1e-200, "cfg": SolverConfig(p=2, tau=1e-200, r=2),
    }, ValueError, "positive"),
    # each passes its check, but tau * sigma * sqrt(n) overflows, as a float or an int
    "restore-target-overflow": (restore, {
        "sigma": 1e300, "cfg": SolverConfig(p=2, tau=1e300, r=2),
    }, ValueError, "finite"),
    "restore-target-overflow-int": (restore, {
        "sigma": 10**300, "cfg": SolverConfig(p=2, tau=10**300, r=2),
    }, ValueError, "finite"),
    "BlurSpec-band-even": (BlurSpec, {"band": 4}, ValueError, "odd positive integer"),
    "BlurSpec-band-fractional": (BlurSpec, {"band": 4.5}, ValueError, "odd positive integer"),
    "BlurSpec-band-float": (BlurSpec, {"band": 3.0}, ValueError, "odd positive integer"),
    "BlurSpec-band-nan": (BlurSpec, {"band": NAN}, ValueError, "odd positive integer"),
    "BlurSpec-band-inf": (BlurSpec, {"band": INF}, ValueError, "odd positive integer"),
    "BlurSpec-band-bool": (BlurSpec, {"band": True}, ValueError, "odd positive integer"),
    # a NaN or infinite width would give a NaN or box kernel; band 1 is checked too
    "BlurSpec-sigma-nan": (BlurSpec, {"band": 5, "sigma": NAN}, ValueError, "sigma"),
    "BlurSpec-sigma-inf": (BlurSpec, {"band": 5, "sigma": INF}, ValueError, "sigma"),
    "BlurSpec-sigma-zero": (BlurSpec, {"band": 5, "sigma": 0.0}, ValueError, "sigma"),
    "BlurSpec-sigma-nan-band1": (BlurSpec, {"band": 1, "sigma": NAN}, ValueError, "sigma"),
    "BlurSpec-sigma-inf-band1": (BlurSpec, {"band": 1, "sigma": INF}, ValueError, "sigma"),
    "BlurSpec-sigma-zero-band1": (BlurSpec, {"band": 1, "sigma": 0.0}, ValueError, "sigma"),
    # finite and positive, but 2 sigma**2 is 0 or overflows, at either band
    "BlurSpec-sigma-tiny": (BlurSpec, {"band": 5, "sigma": 1e-200}, ValueError, "sigma"),
    "BlurSpec-sigma-huge": (BlurSpec, {"band": 5, "sigma": 1e300}, ValueError, "sigma"),
    "BlurSpec-sigma-tiny-band1": (BlurSpec, {"band": 1, "sigma": 1e-200}, ValueError, "sigma"),
    "BlurSpec-sigma-huge-band1": (BlurSpec, {"band": 1, "sigma": 1e300}, ValueError, "sigma"),
    "BlurSpec-sigma-bool": (BlurSpec, {"sigma": True}, ValueError, "sigma"),
    "BlurSpec-sigma-numpy-bool": (BlurSpec, {"sigma": np.True_}, ValueError, "sigma"),
    "BlurSpec-sigma-str": (BlurSpec, {"sigma": "1"}, ValueError, "sigma .* got '1'"),
    "BlurSpec-sigma-huge-int": (BlurSpec, {"band": 5, "sigma": 10**400}, ValueError, "sigma"),
    "build_plan-kernel-larger-than-image": (build_plan, {
        "width": 3, "height": 3, "spec": BlurSpec(band=5, sigma=1.0),
    }, ValueError, "larger than image"),
    "DegradationSpec-blur-none":
        (DegradationSpec, {"blur": None}, ValueError, "blur must be a BlurSpec"),
    "DegradationSpec-sigma-nan": (DegradationSpec, {"sigma": NAN}, ValueError, "sigma"),
    "DegradationSpec-sigma-inf": (DegradationSpec, {"sigma": INF}, ValueError, "sigma"),
    "DegradationSpec-sigma-bool": (DegradationSpec, {"sigma": True}, ValueError, "sigma"),
    "DegradationSpec-sigma-str":
        (DegradationSpec, {"sigma": "1"}, ValueError, "sigma .* got '1'"),
    "DegradationSpec-sigma-huge-int":
        (DegradationSpec, {"sigma": 10**400}, ValueError, "sigma"),
    "DegradationSpec-seed-bool": (DegradationSpec, {"seed": True}, ValueError, "seed"),
    "DegradationSpec-seed-float": (DegradationSpec, {"seed": 1.5}, ValueError, "seed"),
    "DegradationSpec-seed-negative": (DegradationSpec, {"seed": -1}, ValueError, "seed"),
    "degrade-u-array":
        (degrade, {"u": np.full((8, 8), 0.5)}, ValueError, "u must be an ImageBuffer"),
    "degrade-spec-none": (degrade, {"spec": None}, ValueError, "spec must be a DegradationSpec"),
    "degrade-kernel-oversized": (degrade, {
        "spec": DegradationSpec(BlurSpec(band=9), 0.1),
    }, ValueError, "larger than image"),
    "PhantomSpec-width-float":
        (PhantomSpec, {"width": 64.0}, ValueError, "width must be an integer"),
    "PhantomSpec-height-float":
        (PhantomSpec, {"height": np.float64(64)}, ValueError, "height must be an integer"),
    "PhantomSpec-width-bool":
        (PhantomSpec, {"width": True}, ValueError, "width must be an integer"),
    "PhantomSpec-width-too-small": (
        PhantomSpec, {"width": 16, "kind": "cartoon"}, ValueError, "width must be an integer >= 32",
    ),
    "PhantomSpec-height-too-small":
        (PhantomSpec, {"height": 31}, ValueError, "height must be an integer >= 32"),
    "PhantomSpec-kind-unknown": (PhantomSpec, {"kind": "noise"}, ValueError, "kind must be"),
    "PhantomSpec-freq-nan": (PhantomSpec, {"texture_freq": NAN}, ValueError, "texture_freq"),
    "PhantomSpec-freq-inf": (PhantomSpec, {"texture_freq": INF}, ValueError, "texture_freq"),
    "PhantomSpec-freq-bool": (PhantomSpec, {"texture_freq": True}, ValueError, "texture_freq"),
    "PhantomSpec-freq-str":
        (PhantomSpec, {"texture_freq": "1"}, ValueError, "texture_freq .* got '1'"),
    "ImageBuffer-nan":
        (ImageBuffer, {"data": np.array([[0.0, NAN], [0.0, 0.0]])}, ValueError, "finite"),
    "ImageBuffer-inf": (ImageBuffer, {"data": np.array([[INF]])}, ValueError, "finite"),
    "ImageBuffer-1d": (ImageBuffer, {"data": np.zeros(4)}, ValueError, "2-D"),
    # a float64 cast would drop the imaginary part, parse the strings or count the days
    "ImageBuffer-complex": (ImageBuffer, {"data": np.array([[1 + 2j, 0.5]])}, ValueError, "real"),
    "ImageBuffer-str": (ImageBuffer, {"data": np.array([["0.5", "1"]])}, ValueError, "real"),
    "ImageBuffer-bytes": (ImageBuffer, {"data": np.array([[b"0.5", b"1"]])}, ValueError, "real"),
    "ImageBuffer-datetime64": (ImageBuffer, {
        "data": np.array([["2020-01-01"]], dtype="datetime64[D]"),
    }, ValueError, "real"),
    "ssim-image-too-small": (ssim, {
        "a": ImageBuffer(np.zeros((10, 10))), "b": ImageBuffer(np.zeros((10, 10))),
    }, ValueError, "SSIM window 11x11 larger than image 10x10"),
    "isnr-shape-mismatch": (isnr, {
        "g": ImageBuffer(np.zeros((4, 4))), "u_true": ImageBuffer(np.zeros((4, 5))),
        "u_rec": ImageBuffer(np.zeros((4, 4))),
    }, ValueError, "differ in shape"),
}

# The buffers each loop primitive takes last, defaulting to None: ``out=`` the
# result (``_spectral_step``'s is the pair it returns), ``scratch=`` workspace.
# No other parameter defaults to None, so a third convention fails here.
BUFFERS = {
    "adapt._alpha_from_norms": ["out", "scratch"],
    "linops.box_mean": ["out", "scratch"],
    "linops.divergence": ["out", "scratch"],
    "linops.gradient": ["out"],
    "linops.pointwise_norm": ["out", "scratch"],
    "linops._spectral_step": ["out"],
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


@pytest.mark.parametrize("call, arguments, error, message", REJECTED.values(), ids=list(REJECTED))
def test_rejected(monkeypatch, call, arguments, error, message):
    # rejected where it enters, before any sweep runs
    def no_sweep(*args):
        raise AssertionError("a sweep ran before the input was checked")

    monkeypatch.setattr(solver, "_sweep", no_sweep)
    with pytest.raises(error, match=message):
        call(**{**VALID.get(call, {}), **arguments})


@pytest.mark.parametrize(
    "boundary", ["BlurSpec", "DegradationSpec", "PhantomSpec", "SolverConfig", "degrade", "restore"]
)
def test_every_checked_field_has_a_rejected_row(boundary):
    # each argument of a checked record, of degrade or of restore is the only
    # name some row passes, so a field or keyword cannot join it without a
    # check of its own: a row that passes two names may trip a check of either
    call = getattr(hwtv, boundary)
    named = {name for row_call, arguments, *_ in REJECTED.values()
             if row_call is call and len(arguments) == 1 for name in arguments}
    unnamed = [name for name in inspect.signature(call).parameters if name not in named]
    assert unnamed == []


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


def test_package_imports_run_one_way():
    # Each module imports the package's modules at module level, and those
    # imports form no cycle, so the modules load in one order and no module
    # reads a partly loaded one.
    graph = {}
    for path in sorted((ROOT / "src" / "hwtv").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        imports = [node for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) and node.level]
        nested = [node.lineno for node in imports if node not in tree.body]
        assert not nested, f"{path.name} imports the package below module level: lines {nested}"
        graph[path.stem] = {node.module or alias.name for node in imports for alias in node.names}
    graphlib.TopologicalSorter(graph).prepare()  # raises CycleError on a cycle


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
