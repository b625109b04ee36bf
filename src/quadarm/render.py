"""Float kernels rendered from formula source text, as ``namedtuple`` builds
its methods.  ``kernel`` wraps a body of formula text in ``def make(<constants>):
def <name>(<signature>, *, <constant>=<constant>, ...): <body>``, compiles it once
per distinct text on first use, and registers it in ``linecache`` as ``<quadarm.NAME
CRC>`` for tracebacks and ``inspect``.  Constants reach the code only as ``make``'s
arguments, bound as the kernel's locals: no configured value is ever part of a text."""

from __future__ import annotations

import functools
import linecache
import re
import textwrap
import zlib

_IDENTIFIER = re.compile(r"(?<![\w.])[A-Za-z_]\w*")  # not an exponent's e, not an attribute


def rename(text: str, names: dict) -> str:
    """``text`` with each identifier in ``names`` replaced by its value."""
    return _IDENTIFIER.sub(lambda word: names.get(word[0], word[0]), text)


def fill(template: str, **parts: str) -> str:
    """``template`` with each line ``<indent>@name`` replaced by ``parts[name]``, indented."""
    return "".join(textwrap.indent(parts[line.strip()[1:]], line[:line.index("@")])
                   if line.lstrip().startswith("@") else line
                   for line in template.splitlines(keepends=True))


def kernel(name: str, constants: dict, signature: str, body: str):
    """``name(signature)`` running ``body`` with ``constants`` bound."""
    return _make(name, tuple(constants), signature, body)(**constants)


@functools.cache
def _make(name: str, names: tuple, signature: str, body: str):
    bound = "".join(f", {n}={n}" for n in names)  # keyword-only defaults, read as locals
    text = (f"def make({', '.join(names)}):\n"
            f"    def {name}({signature}{', *' if names else ''}{bound}):\n"
            f"{textwrap.indent(body, ' ' * 8)}    return {name}\n")
    filename = f"<quadarm.{name} {zlib.crc32(text.encode()):08x}>"
    linecache.cache[filename] = (len(text), None, text.splitlines(keepends=True), filename)
    namespace = {"__name__": __name__}
    exec(compile(text, filename, "exec"), namespace)
    return namespace["make"]
