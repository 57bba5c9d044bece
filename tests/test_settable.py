"""The number of settable values: every CLI flag plus every defaulted
parameter of a public callable (the names in each module's __all__; a class
counts its constructor's defaulted parameters, dataclass fields included).

The count is pinned.  A new flag, defaulted parameter or config field fails
this test until its change raises the pin and says why.
"""

import argparse
import importlib
import inspect
import pkgutil

import pvarlab
from pvarlab.cli import build_parser

# 38 CLI flags, 12 defaulted parameters; 51 since CheckReport's checks and
# sweeps left its constructor (no caller set them: run_suite fills both),
# 50 since Grid2's meta went (only gen_series_f wrote it and nothing read it)
SETTABLE_VALUES = 50


def _cli_flags() -> list[str]:
    flags = []
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    for command, parser in sub.choices.items():
        for action in parser._actions:
            if action.option_strings and not isinstance(action, argparse._HelpAction):
                flags.append(f"{command} {action.option_strings[0]}")
    return flags


def _defaulted_parameters() -> list[str]:
    out, seen = [], set()
    for info in pkgutil.iter_modules(pvarlab.__path__):
        module = importlib.import_module(f"pvarlab.{info.name}")
        for name in getattr(module, "__all__", ()):
            obj = getattr(module, name)
            if not callable(obj) or id(obj) in seen:
                continue
            seen.add(id(obj))
            for param in inspect.signature(obj).parameters.values():
                if param.default is not inspect.Parameter.empty:
                    out.append(f"{info.name}.{name}({param.name})")
    return out


def test_settable_value_count_is_pinned():
    values = _cli_flags() + _defaulted_parameters()
    assert len(values) == SETTABLE_VALUES, "\n".join(values)


def test_run_suite_takes_seed_only():
    assert list(inspect.signature(pvarlab.run_suite).parameters) == ["seed"]
