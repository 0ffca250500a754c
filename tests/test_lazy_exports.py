"""Every package ``__init__`` resolves its public names lazily and right.

Each package lists its names in one ``lazy_exports`` table
(:mod:`repro._lazy`).  A stale entry -- a name that moved, a typo, a
submodule that was renamed -- would fail only when a user first reads
that name, so these checks read every one of them here: the table is
parsed from the ``__init__`` source, then each name is resolved through
the package and compared with the object its submodule holds.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parent

#: Every package with a lazy table; ``repro.lint`` keeps its eager
#: imports because importing it registers the rules.
PACKAGES = (
    "repro", "repro.agents", "repro.analysis", "repro.core", "repro.core.kernels",
    "repro.experiments", "repro.filtering", "repro.geoip", "repro.gnutella",
    "repro.measurement", "repro.service", "repro.synthesis", "repro.transfers",
    "repro.viz",
)


def init_path(package):
    return SRC.joinpath(*package.split(".")[1:], "__init__.py")


def lazy_table(package):
    """The ``{submodule: names}`` literal passed to ``lazy_exports``."""
    tree = ast.parse(init_path(package).read_text())
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "lazy_exports"):
            return ast.literal_eval(node.args[1])
    raise AssertionError(f"{package} has no lazy_exports table")


def table_names(package):
    return [name for names in lazy_table(package).values() for name in names]


def test_every_package_but_lint_has_a_table():
    with_table = sorted(
        ".".join(("repro",) + path.parent.relative_to(SRC).parts)
        for path in sorted(SRC.rglob("__init__.py"))
        if "lazy_exports(" in path.read_text()
    )
    assert with_table == sorted(PACKAGES)


@pytest.mark.parametrize("package", PACKAGES)
def test_names_resolve_to_the_defining_modules_objects(package):
    module = importlib.import_module(package)
    for submodule, names in lazy_table(package).items():
        owner = importlib.import_module(f"{package}.{submodule}")
        for name in names:
            assert getattr(module, name) is getattr(owner, name), (package, name)


@pytest.mark.parametrize("package", PACKAGES)
def test_all_is_the_table(package):
    module = importlib.import_module(package)
    names = table_names(package)
    assert len(names) == len(set(names)), f"{package} lists a name twice"
    eager = ["__version__"] if package == "repro" else []
    assert module.__all__ == names + eager


@pytest.mark.parametrize("package", PACKAGES)
def test_unknown_names_raise_attribute_error(package):
    module = importlib.import_module(package)
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(module, "no_such_name")
    assert not hasattr(module, "no_such_name")


@pytest.mark.parametrize("package", PACKAGES)
def test_from_package_import_submodule_still_imports_it(package):
    module = importlib.import_module(package)
    for info in pkgutil.iter_modules(module.__path__):
        if info.name.startswith("_"):
            continue
        namespace = {}
        exec(f"from {package} import {info.name} as sub", namespace)
        assert namespace["sub"] is importlib.import_module(f"{package}.{info.name}")


def test_star_import_and_public_spellings():
    namespace = {}
    exec("from repro.core import *", namespace)
    assert set(table_names("repro.core")) <= set(namespace)
    from repro.core import SyntheticWorkloadGenerator, parameters
    from repro.synthesis import SynthesisConfig
    from repro.synthesis.synthesizer import SynthesisConfig as from_synthesizer

    assert SynthesisConfig is from_synthesizer
    assert parameters.__name__ == "repro.core.parameters"
    assert repro.SyntheticWorkloadGenerator is SyntheticWorkloadGenerator
    assert repro.__version__ == "1.0.0"
