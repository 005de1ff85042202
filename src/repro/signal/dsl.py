"""A small Pythonic DSL for writing SIGNAL processes.

The DSL keeps example code close to the paper's concrete syntax::

    count = ProcessBuilder("Count")
    reset = count.input("reset", "event")
    val = count.output("val", "integer")
    counter = count.local("counter", "integer")
    count.define(counter, val.delayed(0))
    count.define(val, const(0).when(reset).default(counter + 1))
    process = count.build()
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

from .ast import (
    ClockConstraint,
    Constant,
    Definition,
    Expression,
    ExpressionLike,
    FunctionCall,
    Instantiation,
    ProcessDefinition,
    SignalDeclaration,
    SignalRef,
    Statement,
    as_expression,
)


def sig(name: str) -> SignalRef:
    """A reference to the signal ``name``."""
    return SignalRef(name)


def const(value: Any) -> Constant:
    """A constant expression."""
    return Constant(value)


def call(function: str, *arguments: ExpressionLike) -> FunctionCall:
    """An intrinsic-function application (``rshift``, ``xand``, ...)."""
    return FunctionCall(function, [as_expression(a) for a in arguments])


def synchro(*operands: ExpressionLike) -> ClockConstraint:
    """The clock-equality constraint ``a ^= b ^= ...``."""
    return ClockConstraint("=", [as_expression(o) for o in operands])


class BoundSignal(SignalRef):
    """A signal reference that remembers the builder and declaration it came from."""

    def __init__(self, name: str, declaration: SignalDeclaration, builder: "ProcessBuilder") -> None:
        super().__init__(name)
        self.declaration = declaration
        self.builder = builder


class ProcessBuilder:
    """Incremental construction of a :class:`ProcessDefinition`."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._inputs: list[SignalDeclaration] = []
        self._outputs: list[SignalDeclaration] = []
        self._locals: list[SignalDeclaration] = []
        self._body: list[Statement] = []

    # -- declarations -------------------------------------------------------------

    def input(self, name: str, type: str = "integer", bounds: tuple[int, int] | None = None) -> BoundSignal:
        """Declare an input signal and return a reference to it."""
        declaration = SignalDeclaration(name, type, bounds)
        self._inputs.append(declaration)
        return BoundSignal(name, declaration, self)

    def output(self, name: str, type: str = "integer", bounds: tuple[int, int] | None = None) -> BoundSignal:
        """Declare an output signal and return a reference to it."""
        declaration = SignalDeclaration(name, type, bounds)
        self._outputs.append(declaration)
        return BoundSignal(name, declaration, self)

    def local(self, name: str, type: str = "integer", bounds: tuple[int, int] | None = None) -> BoundSignal:
        """Declare a local (hidden) signal and return a reference to it."""
        declaration = SignalDeclaration(name, type, bounds)
        self._locals.append(declaration)
        return BoundSignal(name, declaration, self)

    def inputs(self, names: Iterable[str], type: str = "integer") -> list[BoundSignal]:
        """Declare several inputs of the same type."""
        return [self.input(n, type) for n in names]

    def outputs(self, names: Iterable[str], type: str = "integer") -> list[BoundSignal]:
        """Declare several outputs of the same type."""
        return [self.output(n, type) for n in names]

    def locals(self, names: Iterable[str], type: str = "integer") -> list[BoundSignal]:
        """Declare several locals of the same type."""
        return [self.local(n, type) for n in names]

    # -- statements ------------------------------------------------------------------

    def define(self, target: SignalRef | str, expression: ExpressionLike) -> Definition:
        """Add an equation ``target := expression``."""
        name = target.name if isinstance(target, SignalRef) else target
        definition = Definition(name, expression)
        self._body.append(definition)
        return definition

    def constrain(self, *operands: ExpressionLike, kind: str = "=") -> ClockConstraint:
        """Add a clock constraint between the operands (default ``^=``)."""
        constraint = ClockConstraint(kind, [as_expression(o) for o in operands])
        self._body.append(constraint)
        return constraint

    def synchronize(self, *operands: ExpressionLike) -> ClockConstraint:
        """Alias of :meth:`constrain` with clock equality."""
        return self.constrain(*operands, kind="=")

    def instantiate(
        self,
        process: ProcessDefinition,
        inputs: Sequence[ExpressionLike],
        outputs: Sequence[SignalRef | str],
        instance_name: str | None = None,
    ) -> Instantiation:
        """Add a sub-process instantiation."""
        output_names = [o.name if isinstance(o, SignalRef) else o for o in outputs]
        instantiation = Instantiation(process, [as_expression(e) for e in inputs], output_names, instance_name)
        self._body.append(instantiation)
        return instantiation

    def add(self, statement: Statement) -> Statement:
        """Add an arbitrary pre-built statement."""
        self._body.append(statement)
        return statement

    # -- finalisation ------------------------------------------------------------------

    def build(self) -> ProcessDefinition:
        """Produce the immutable :class:`ProcessDefinition`."""
        return ProcessDefinition(self.name, self._inputs, self._outputs, self._body, self._locals)

    def design(self, **options: Any):
        """Build the process and wrap it in a workbench :class:`Design` facade.

        Keyword arguments are forwarded to the Design constructor
        (``exploration_options``, ``symbolic_int_options``, ``registry``, ...).
        """
        from ..workbench import Design

        return Design.from_builder(self, **options)
