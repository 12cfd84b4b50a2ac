"""Code hygiene for the command line: every option and positional that
``build_parser()`` defines is read by ``cli.py``, either as ``ns.<dest>``
(on any namespace variable) or as ``getattr(ns, "<dest>", ...)``.  An option
that nothing reads is a promise the program does not keep.
"""

import argparse
import ast
from pathlib import Path

from hecke5.cli import build_parser

CLI = Path(__file__).resolve().parent.parent / "src" / "hecke5" / "cli.py"


def parser_dests(parser: argparse.ArgumentParser) -> set[str]:
    """Destinations of ``parser`` and of all its subparsers, leaving out
    ``--help`` and ``--version``, which act and exit instead of storing."""
    dests = set()
    for action in parser._actions:
        if isinstance(action, (argparse._HelpAction, argparse._VersionAction)):
            continue
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                dests |= parser_dests(sub)
        dests.add(action.dest)
    return dests


def read_attributes(source: str) -> set[str]:
    """Names read from a variable as ``x.name`` or ``getattr(x, "name", ...)``."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            found.add(node.attr)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "getattr"
            and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
        ):
            found.add(node.args[1].value)
    return found


def test_unread_dests_are_detected():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int)
    parser.add_argument("--json", action="store_true")
    sub = parser.add_subparsers(dest="verb")
    sub.add_parser("run").add_argument("target")
    source = (
        "def main(ns):\n"
        "    return getattr(ns, 'verb', None), ns.target, ns.json.real\n"
    )
    assert parser_dests(parser) == {"seed", "json", "verb", "target"}
    assert parser_dests(parser) - read_attributes(source) == {"seed"}


def test_every_parser_dest_is_read():
    dests = parser_dests(build_parser())
    assert {"json", "bound", "batch", "verb", "only"} <= dests
    assert dests - read_attributes(CLI.read_text()) == set()
