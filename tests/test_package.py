"""The package namespace is the union of its modules' export lists."""

import pathlib
import re

import eqstate as eq
from eqstate import analysis, errors, inducing, maps, thermo, zooming

MODULES = (errors, maps, zooming, inducing, thermo, analysis)
ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_package_exports_each_module_list_once():
    names = [name for mod in MODULES for name in mod.__all__]
    assert sorted(eq.__all__) == sorted(names)
    assert len(set(eq.__all__)) == len(eq.__all__)
    for mod in MODULES:
        for name in mod.__all__:
            assert getattr(eq, name) is getattr(mod, name), (mod.__name__, name)


def test_every_public_class_and_function_is_exported():
    # a module's public classes and functions are in its list
    for mod in MODULES:
        public = {name for name, v in vars(mod).items() if not name.startswith("_")
                  and getattr(v, "__module__", None) == mod.__name__
                  and (isinstance(v, type) or callable(v))}
        assert public <= set(mod.__all__), (mod.__name__, public - set(mod.__all__))


def test_every_name_the_tests_and_benchmark_read_resolves():
    used = set()
    for d in ("tests", "perfbench"):
        for path in (ROOT / d).glob("*.py"):
            used |= set(re.findall(r"(?<![\w./\"'])eq\.([A-Za-z_]\w*)", path.read_text()))
    assert used and not {name for name in used if not hasattr(eq, name)}
