"""A small behavioral specification language.

CHOP's input DFGs came out of the ADAM design system's front ends; this
module provides the equivalent entry point: a textual behavioral
language compiled straight into a :class:`~repro.dfg.graph.DataFlowGraph`
through the builder.  Grammar (line-oriented, ``#`` comments)::

    graph fir4 width 16        # optional header (name, default width)
    input x, k0, k1 width 8    # declare inputs (width optional)
    memory M                   # declare a memory block name

    t = x * k0                 # assignments build operations
    u = (t + k1) - x           # full expression grammar below
    v = read M[x]              # addressed memory read
    write M, u                 # stream memory write
    repeat 3 as i:             # determinate loop, unrolled at parse
        acc = acc + k$i        #   $i substitutes the iteration index
    end

    output u, v                # mark primary outputs

Expressions support ``+ - * / & |``, comparison ``<``, shift ``<<``,
parentheses, and names.  Operator precedence is conventional
(``* /`` over ``+ -`` over ``<<`` over ``< & |``).  Every assignment
target becomes a named value; reassigning a name shadows it for later
lines (SSA renaming happens internally), exactly how loop-carried
accumulators behave after unrolling.

Hostile text ends in a :class:`~repro.errors.SpecificationError`, never
in unbounded work: see :data:`MAX_NESTING`, :data:`MAX_UNROLLED` and
:data:`repro.units.MAX_BIT_WIDTH`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.dfg.builders import GraphBuilder
from repro.dfg.graph import DataFlowGraph
from repro.dfg.ops import OpType
from repro.errors import SpecificationError
from repro.units import DEFAULT_BIT_WIDTH

#: Deepest nesting of parentheses and ``read`` brackets within one
#: expression, and of ``repeat`` blocks.
MAX_NESTING = 64

#: Most unrolling steps a specification may take: every statement run,
#: ``repeat`` iteration and operation built counts one.
MAX_UNROLLED = 20_000

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9$]*)"
    r"|(?P<op><<|[-+*/&|<,()\[\]=]))"
)

#: Binding powers for the Pratt expression parser.
_BINDING = {
    "|": 10,
    "&": 10,
    "<": 20,
    "<<": 30,
    "+": 40,
    "-": 40,
    "*": 50,
    "/": 50,
}

_OP_TYPES = {
    "+": OpType.ADD,
    "-": OpType.SUB,
    "*": OpType.MUL,
    "/": OpType.DIV,
    "<": OpType.COMPARE,
    "<<": OpType.SHIFT,
    "&": OpType.AND,
    "|": OpType.OR,
}


@dataclass
class _Line:
    number: int
    text: str


class _ExprParser:
    """Pratt parser producing a small AST.

    Nodes are tuples: ``("op", OpType, left, right)``,
    ``("name", identifier)``, ``("num", value)`` and
    ``("read", block, address_node)``.  Keeping an AST lets the emitter
    name the root operation after the assignment target.
    """

    def __init__(self, tokens: List[str], line: int) -> None:
        self.tokens = tokens
        self.position = 0
        self.line = line
        self.depth = 0

    def peek(self) -> Optional[str]:
        if self.position < len(self.tokens):
            return self.tokens[self.position]
        return None

    def advance(self) -> str:
        token = self.peek()
        if token is None:
            raise SpecificationError(
                f"line {self.line}: unexpected end of expression"
            )
        self.position += 1
        return token

    def expect(self, token: str) -> None:
        got = self.advance()
        if got != token:
            raise SpecificationError(
                f"line {self.line}: expected {token!r}, got {got!r}"
            )

    def parse(self, min_power: int = 0):
        left = self._primary()
        while True:
            token = self.peek()
            power = _BINDING.get(token or "")
            if token is None or power is None or power < min_power:
                return left
            self.advance()
            right = self.parse(power + 1)
            left = ("op", _OP_TYPES[token], left, right)
        return left

    def _nested(self, close: str):
        """Parse a bracketed sub-expression, at most MAX_NESTING deep."""
        if self.depth >= MAX_NESTING:
            raise SpecificationError(
                f"line {self.line}: expression nests deeper than "
                f"{MAX_NESTING} levels"
            )
        self.depth += 1
        inner = self.parse()
        self.expect(close)
        self.depth -= 1
        return inner

    def _primary(self):
        token = self.advance()
        if token == "(":
            return self._nested(")")
        if token == "read":
            block = self.advance()
            self.expect("[")
            return ("read", block, self._nested("]"))
        if re.fullmatch(r"\d+", token):
            return ("num", int(token))
        if re.fullmatch(r"[A-Za-z_][A-Za-z_0-9$]*", token):
            return ("name", token)
        raise SpecificationError(
            f"line {self.line}: unexpected token {token!r}"
        )


class _Compiler:
    """Statement-by-statement compilation into a GraphBuilder."""

    def __init__(self) -> None:
        self.builder: Optional[GraphBuilder] = None
        self.name = "spec"
        self.width = DEFAULT_BIT_WIDTH
        #: Source-language name -> current value id (SSA head).
        self.environment: Dict[str, str] = {}
        self.memories: set = set()
        self.outputs: List[str] = []
        self._constants: Dict[int, str] = {}
        self._header_done = False
        self._steps = 0
        self._repeat_depth = 0

    # ------------------------------------------------------------------
    def ensure_builder(self) -> GraphBuilder:
        if self.builder is None:
            self.builder = GraphBuilder(self.name, self.width)
        return self.builder

    def constant(self, value: int, line: int) -> str:
        """Constants become dedicated input values (ROM-fed), as the
        coefficient inputs of the paper's benchmarks are."""
        existing = self._constants.get(value)
        if existing is not None:
            return existing
        vid = self.ensure_builder().input(f"const_{value}")
        self._constants[value] = vid
        self.environment[f"const_{value}"] = vid
        return vid

    def lookup(self, name: str, line: int) -> str:
        vid = self.environment.get(name)
        if vid is None:
            raise SpecificationError(
                f"line {line}: undefined name {name!r}"
            )
        return vid

    def emit(self, node, line: int, name: Optional[str] = None) -> str:
        """Emit an AST node; ``name`` labels the root value if the root
        creates an operation (a bare name/constant cannot be renamed)."""
        kind = node[0]
        if kind == "name":
            return self.lookup(node[1], line)
        if kind == "num":
            return self.constant(node[1], line)
        if kind == "read":
            _k, block, address = node
            if block not in self.memories:
                raise SpecificationError(
                    f"line {line}: undeclared memory {block!r}"
                )
            address_vid = self.emit(address, line)
            return self.ensure_builder().mem_read(
                address_vid, block, name=self._fresh(name)
            )
        # A left-associative chain nests down its left operands: walk
        # that spine in a loop so a long chain costs no recursion depth.
        spine = []
        while node[0] == "op":
            spine.append(node)
            node = node[2]
        vid = self.emit(node, line)
        for op_node in reversed(spine):
            _k, op_type, _left, right = op_node
            right_vid = self.emit(right, line)
            vid = self.ensure_builder().op(
                op_type, vid, right_vid,
                name=self._fresh(name) if op_node is spine[0] else None,
            )
        return vid

    def _fresh(self, name: Optional[str]) -> Optional[str]:
        """A source name is usable as a value id only once (SSA)."""
        if name is None:
            return None
        builder = self.ensure_builder()
        if name in builder._values:  # shadowed: keep auto-naming
            return None
        return name

    # ------------------------------------------------------------------
    def run(self, lines: List[_Line]) -> DataFlowGraph:
        index = 0
        while index < len(lines):
            index = self._statement(lines, index)
        builder = self.ensure_builder()
        if not self.outputs:
            raise SpecificationError(
                "specification declares no outputs"
            )
        for name in self.outputs:
            builder.output(self.lookup(name, 0))
        return builder.build()

    def _statement(self, lines: List[_Line], index: int) -> int:
        line = lines[index]
        text = line.text
        self._step(line)
        if text.startswith("graph "):
            self._header(line)
            return index + 1
        if text.startswith("input "):
            self._inputs(line)
            return index + 1
        if text.startswith("memory "):
            self._memory(line)
            return index + 1
        if text.startswith("output "):
            self._outputs(line)
            return index + 1
        if text.startswith("write "):
            self._write(line)
            return index + 1
        if text.startswith("repeat "):
            return self._repeat(lines, index)
        if text == "end":
            raise SpecificationError(
                f"line {line.number}: 'end' without matching 'repeat'"
            )
        if "=" in text:
            self._assignment(line)
            return index + 1
        raise SpecificationError(
            f"line {line.number}: cannot parse statement {text!r}"
        )

    def _header(self, line: _Line) -> None:
        if self._header_done or self.builder is not None:
            raise SpecificationError(
                f"line {line.number}: header must come first"
            )
        match = re.fullmatch(
            r"graph\s+(\w[\w-]*)(?:\s+width\s+(\d+))?", line.text
        )
        if not match:
            raise SpecificationError(
                f"line {line.number}: malformed graph header"
            )
        self.name = match.group(1)
        if match.group(2):
            self.width = int(match.group(2))
        self._header_done = True

    def _inputs(self, line: _Line) -> None:
        match = re.fullmatch(
            r"input\s+(.+?)(?:\s+width\s+(\d+))?", line.text
        )
        if not match:
            raise SpecificationError(
                f"line {line.number}: malformed input declaration"
            )
        width = int(match.group(2)) if match.group(2) else None
        for raw in match.group(1).split(","):
            name = raw.strip()
            if not re.fullmatch(r"[A-Za-z_]\w*", name):
                raise SpecificationError(
                    f"line {line.number}: bad input name {name!r}"
                )
            vid = self.ensure_builder().input(name, width=width)
            self.environment[name] = vid

    def _memory(self, line: _Line) -> None:
        match = re.fullmatch(r"memory\s+(\w+)", line.text)
        if not match:
            raise SpecificationError(
                f"line {line.number}: malformed memory declaration"
            )
        self.memories.add(match.group(1))

    def _outputs(self, line: _Line) -> None:
        names = line.text[len("output "):].split(",")
        for raw in names:
            name = raw.strip()
            self.lookup(name, line.number)  # must exist
            self.outputs.append(name)

    def _write(self, line: _Line) -> None:
        match = re.fullmatch(r"write\s+(\w+)\s*,\s*(.+)", line.text)
        if not match:
            raise SpecificationError(
                f"line {line.number}: malformed write statement"
            )
        block = match.group(1)
        if block not in self.memories:
            raise SpecificationError(
                f"line {line.number}: undeclared memory {block!r}"
            )
        value = self._expression(match.group(2), line.number)
        self.ensure_builder().mem_write(value, block)

    def _assignment(self, line: _Line) -> None:
        target, _eq, expr = line.text.partition("=")
        name = target.strip()
        if not re.fullmatch(r"[A-Za-z_][A-Za-z_0-9$]*", name):
            raise SpecificationError(
                f"line {line.number}: bad assignment target {name!r}"
            )
        self.environment[name] = self._expression(
            expr, line.number, name=name
        )

    def _repeat(self, lines: List[_Line], index: int) -> int:
        header = lines[index]
        match = re.fullmatch(
            r"repeat\s+(\d+)\s+as\s+(\w+)\s*:", header.text
        )
        if not match:
            raise SpecificationError(
                f"line {header.number}: malformed repeat header"
            )
        if self._repeat_depth >= MAX_NESTING:
            raise SpecificationError(
                f"line {header.number}: 'repeat' blocks nest deeper than "
                f"{MAX_NESTING} levels"
            )
        count = int(match.group(1))
        variable = match.group(2)
        body: List[_Line] = []
        cursor = index + 1
        depth = 1
        while cursor < len(lines):
            text = lines[cursor].text
            if text.startswith("repeat "):
                depth += 1
            elif text == "end":
                depth -= 1
                if depth == 0:
                    break
            body.append(lines[cursor])
            cursor += 1
        else:
            raise SpecificationError(
                f"line {header.number}: 'repeat' without 'end'"
            )
        self._repeat_depth += 1
        for iteration in range(count):
            self._step(header)
            substituted = [
                _Line(
                    b.number,
                    b.text.replace(f"${variable}", str(iteration)),
                )
                for b in body
            ]
            inner = 0
            while inner < len(substituted):
                inner = self._statement(substituted, inner)
        self._repeat_depth -= 1
        return cursor + 1

    def _step(self, line: _Line) -> None:
        """Count one statement or iteration, plus the operations built
        so far, against :data:`MAX_UNROLLED`."""
        self._steps += 1
        built = len(self.builder._operations) if self.builder else 0
        if self._steps + built > MAX_UNROLLED:
            raise SpecificationError(
                f"line {line.number}: the specification unrolls to more "
                f"than {MAX_UNROLLED} statements, iterations and operations"
            )

    def _expression(
        self, text: str, line_number: int, name: Optional[str] = None
    ) -> str:
        tokens = _tokenize(text, line_number)
        parser = _ExprParser(tokens, line_number)
        node = parser.parse()
        if parser.peek() is not None:
            raise SpecificationError(
                f"line {line_number}: trailing tokens after expression"
            )
        return self.emit(node, line_number, name=name)


def _tokenize(text: str, line_number: int) -> List[str]:
    tokens: List[str] = []
    position = 0
    while position < len(text):
        match = _TOKEN_RE.match(text, position)
        if not match or match.end() == position:
            remainder = text[position:].strip()
            if not remainder:
                break
            raise SpecificationError(
                f"line {line_number}: cannot tokenize {remainder!r}"
            )
        tokens.append(match.group().strip())
        position = match.end()
    return tokens


def parse_spec(source: str) -> DataFlowGraph:
    """Compile a behavioral specification to a data-flow graph."""
    lines: List[_Line] = []
    for number, raw in enumerate(source.splitlines(), start=1):
        text = raw.split("#", 1)[0].strip()
        if text:
            lines.append(_Line(number, text))
    if not lines:
        raise SpecificationError("empty specification")
    return _Compiler().run(lines)
