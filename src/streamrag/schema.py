"""The schemas in ``schemas/``, compiled into the checks the readers make.

Each check is Python source generated once per process from the keywords the
schemas use (``type``, ``required``, ``properties``, ``additionalProperties``,
``items``, ``enum``, ``const``, ``minimum``, ``minLength``, ``minItems``,
``$ref``); any other keyword fails the compile. It keeps one integer rule:
``true`` and ``2.0`` are not integers, and neither equals ``1``. A fault is an
InputError naming its JSON path: ``words[1].text must be a string, got 12``.
"""

from __future__ import annotations

import json
from functools import cache
from pathlib import Path
from typing import Any, Callable

from .errors import InputError

_DIR = Path(__file__).with_name("schemas")
# a JSON type: the type json.loads gives it, and its name in a message
_TYPES = {"object": ("dict", "an object"), "array": ("list", "an array"),
          "string": ("str", "a string"), "integer": ("int", "an integer"),
          "boolean": ("bool", "true or false"), "null": ("NoneType", "null")}
# a bound: the test of variable v against bound n, and the fault
_BOUNDS = {"minimum": ("type({v}) in (int, float) and {v} < {n!r}", "must be at least {n}"),
           "minLength": ("type({v}) is str and len({v}) < {n}", "must have length at least {n}"),
           "minItems": ("type({v}) is list and len({v}) < {n}", "must have length at least {n}")}
_NOTES = {"$schema", "$id", "title", "description"}
_KEYWORDS = _NOTES | {"type", "required", "properties", "additionalProperties", "items", "enum",
                      "const", "minimum", "minLength", "minItems", "$ref"}


@cache
def checker(ref: str, skip: str = "") -> Callable[..., None]:
    """The check of schema ``ref`` (a file in ``schemas/``, and a ``#/pointer``
    to a part) that skips the file's part at ``skip``. ``check(value, what,
    *at)`` names a fault by its path from ``at``, or as ``what`` at the top."""
    name, _, pointer = ref.partition("#")
    body = _lines(_node(name, pointer), name, skip and _node(name, skip), "v", "at", "    ")
    scope = {"_fail": _fail, "NoneType": type(None)}
    exec("\n".join(["def compiled(v, at):", *body, "    pass"]), scope)
    compiled = scope["compiled"]

    def check(value: Any, what: str, *at: str | int) -> None:
        for part in at:
            what = (what, part)
        compiled(value, what)
    return check


@cache
def _node(name: str, pointer: str) -> Any:
    parent, _, part = pointer.rpartition("/")
    return _node(name, parent)[part] if pointer else json.loads((_DIR / name).read_text("utf-8"))


def _fail(at: Any, problem: str, *value: Any) -> None:
    """Raise ``problem`` at path ``at``: (parent, key) pairs down from a name."""
    path = ""
    while type(at) is tuple:
        at, part = at
        path = (f"[{part}]" if type(part) is int else f".{part}") + path
    got = f", got {repr(value[0])[:80]}" if value else ""
    raise InputError(f"{path.removeprefix('.') or at} {problem}{got}")


def _lines(node: Any, name: str, skip: Any, v: str, at: str, pad: str) -> list[str]:
    """The lines, indented by ``pad``, that check variable ``v`` against
    ``node``; the expression ``at`` gives its path."""
    if node is True or node is skip or node.keys() <= _NOTES:
        return []
    if node.keys() - _KEYWORDS:
        raise ValueError(f"{name}: cannot compile {sorted(node.keys() - _KEYWORDS)}")
    if "$ref" in node:
        return _lines(_node(node["$ref"], ""), node["$ref"], None, v, at, pad)
    types = [node["type"]] if isinstance(node.get("type"), str) else node.get("type", [])
    tests = [(" and ".join(f"type({v}) is not {_TYPES[t][0]}" for t in types),
              "must be " + " or ".join(_TYPES[t][1] for t in types))] if types else []
    if "const" in node or "enum" in node:
        choices = [node["const"]] if "const" in node else node["enum"]
        kind = type(choices[0])  # choices of one type need no per-choice type test
        tests.append((f"type({v}) is not {kind.__name__} or {v} not in {choices!r}"
                      if all(type(c) is kind for c in choices)
                      else f"not any(type({v}) is type(c) and {v} == c for c in {choices!r})",
                      f"must be {choices[0]!r}" if "const" in node else f"must be one of {choices}"))
    tests += [(test.format(v=v, n=node[bound]), problem.format(n=node[bound]))
              for bound, (test, problem) in _BOUNDS.items() if bound in node]
    lines = [f"{pad}if {test}: _fail({at}, {problem!r}, {v})" for test, problem in tests]
    x, k, i, inner = f"x{len(pad)}", f"k{len(pad)}", f"i{len(pad)}", pad + " " * 8
    body = [f"{pad}    if {key!r} not in {v}: _fail({at}, {f'lacks key {key!r}'!r})"
            for key in node.get("required", ())]
    for key, sub in node.get("properties", {}).items():
        if checks := _lines(sub, name, skip, x, f"({at}, {key!r})", inner):
            body += [f"{pad}    if {key!r} in {v}:", f"{inner}{x} = {v}[{key!r}]", *checks]
    extra = node.get("additionalProperties", True)
    checks = [f"{inner}    _fail({at}, f'has key {{{k}!r}}, which {name} does not allow')"] \
        if extra is False else _lines(extra, name, skip, x, f"({at}, {k})", inner + "    ")
    if checks:  # of the keys that no property names
        body += [f"{pad}    for {k}, {x} in {v}.items():",
                 f"{inner}if {k} not in {tuple(node.get('properties', ()))}:", *checks]
    if body:
        lines += [f"{pad}if type({v}) is dict:", *body]
    if checks := _lines(node.get("items", True), name, skip, x, f"({at}, {i})", inner):
        lines += [f"{pad}if type({v}) is list:", f"{pad}    for {i}, {x} in enumerate({v}):", *checks]
    return lines
