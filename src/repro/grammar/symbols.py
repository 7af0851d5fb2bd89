"""Grammar symbols: terminals and nonterminals.

Terminology follows the paper: *name* terminals (``%name`` in the appendix syntax) carry
an attribute value computed by the scanner, *keyword* terminals (``%keyword``) carry no
value.  Nonterminals declare synthesized and inherited attributes and may be marked as
*split points* (``%split``) at which the parser is allowed to detach a subtree for
evaluation on another machine.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.grammar.attributes import AttributeDecl, AttributeKind


class Symbol:
    """Base class for grammar symbols.

    Symbols are identified by name; two symbols with the same name and class compare
    equal, which lets grammar fragments built independently be combined.
    """

    __slots__ = ("name",)

    def __init__(self, name: str):
        if not name:
            raise ValueError("symbol name must be non-empty")
        self.name = name

    @property
    def is_terminal(self) -> bool:
        raise NotImplementedError

    @property
    def is_nonterminal(self) -> bool:
        return not self.is_terminal

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Symbol)
            and self.is_terminal == other.is_terminal
            and self.name == other.name
        )

    def __hash__(self) -> int:
        return hash((self.is_terminal, self.name))

    def __repr__(self) -> str:
        kind = "Terminal" if self.is_terminal else "Nonterminal"
        return f"{kind}({self.name!r})"

    def __str__(self) -> str:
        return self.name


class Terminal(Symbol):
    """A terminal symbol (token kind).

    :param name: token kind name, e.g. ``"IDENTIFIER"`` or ``"+"``.
    :param value_attribute: name of the scanner-supplied attribute, or ``None`` for
        keyword terminals that carry no value.  The paper's ``%name`` terminals use
        ``"string"`` by convention.
    """

    __slots__ = ("value_attribute",)

    def __init__(self, name: str, value_attribute: Optional[str] = None):
        super().__init__(name)
        self.value_attribute = value_attribute

    # A plain class attribute, not a property: every parse-tree node construction
    # and most tree traversals read it.
    is_terminal = True

    @property
    def attribute_names(self) -> Tuple[str, ...]:
        if self.value_attribute is None:
            return ()
        return (self.value_attribute,)

    def has_attribute(self, name: str) -> bool:
        return name == self.value_attribute


class Nonterminal(Symbol):
    """A nonterminal symbol with attribute declarations and split policy.

    :param name: nonterminal name.
    :param splittable: whether subtrees rooted at this nonterminal may be detached and
        evaluated on a separate machine (the paper's ``%split`` declaration).
    :param min_split_size: minimum linearized size (in abstract bytes) for a subtree
        rooted here to be considered for separate evaluation.  Scaled at run time by the
        decomposition planner.
    """

    __slots__ = ("attributes", "splittable", "min_split_size")

    def __init__(
        self,
        name: str,
        splittable: bool = False,
        min_split_size: int = 0,
    ):
        super().__init__(name)
        self.attributes: Dict[str, AttributeDecl] = {}
        self.splittable = splittable
        self.min_split_size = min_split_size

    is_terminal = False

    def declare(self, decl: AttributeDecl) -> AttributeDecl:
        """Add an attribute declaration, rejecting duplicates."""
        if decl.name in self.attributes:
            raise ValueError(
                f"attribute {decl.name!r} already declared on nonterminal {self.name!r}"
            )
        self.attributes[decl.name] = decl
        return decl

    def attribute(self, name: str) -> AttributeDecl:
        try:
            return self.attributes[name]
        except KeyError:
            raise KeyError(
                f"nonterminal {self.name!r} has no attribute {name!r}"
            ) from None

    def has_attribute(self, name: str) -> bool:
        return name in self.attributes

    @property
    def attribute_names(self) -> Tuple[str, ...]:
        return tuple(self.attributes)

    @property
    def synthesized(self) -> Tuple[AttributeDecl, ...]:
        return tuple(
            d for d in self.attributes.values() if d.kind is AttributeKind.SYNTHESIZED
        )

    @property
    def inherited(self) -> Tuple[AttributeDecl, ...]:
        return tuple(
            d for d in self.attributes.values() if d.kind is AttributeKind.INHERITED
        )
