"""Formal integer linear combinations of interned basis labels.

Labels are plain strings with their lexicographic order; the same container
serves ring elements and based-module elements.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping

_FORBIDDEN = set(' \t\n*"')


def check_label(label: str) -> str:
    """Validate a label: non-empty UTF-8 text without whitespace, '*' or
    quotes (a lone surrogate from a JSON escape cannot be written out)."""
    if not isinstance(label, str) or not label:
        raise ValueError(f"labels must be non-empty strings, got {label!r}")
    if any(ch in _FORBIDDEN for ch in label):
        raise ValueError(f"label contains a forbidden character: {label!r}")
    try:
        label.encode("utf-8")
    except UnicodeEncodeError:
        raise ValueError(f"label is not UTF-8 text: {label!r}") from None
    return label


class RingElement:
    """Finitely supported Z-linear combination of labels.

    No zero coefficients are stored, and all iteration is in sorted label
    order, so equal elements have equal representations.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[str, int] | Iterable[tuple[str, int]] = ()):
        acc: dict[str, int] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for label, coeff in items:
            if not isinstance(coeff, int):
                raise TypeError(f"coefficients must be integers, got {coeff!r}")
            if coeff:
                acc[label] = acc.get(label, 0) + coeff
                if acc[label] == 0:
                    del acc[label]
        self._terms = acc

    @classmethod
    def _of(cls, counts: dict[str, int]) -> "RingElement":
        """Adopt a label -> int dict the caller built and hands over,
        dropping its zero coefficients; no per-term type checks."""
        out = cls.__new__(cls)
        out._terms = counts if all(counts.values()) else {l: c for l, c in counts.items() if c}
        return out

    @classmethod
    def basis(cls, label: str) -> "RingElement":
        return cls(((label, 1),))

    def coefficient(self, label: str) -> int:
        return self._terms.get(label, 0)

    def items(self) -> list[tuple[str, int]]:
        return sorted(self._terms.items())

    def support(self) -> tuple[str, ...]:
        return tuple(sorted(self._terms))

    def map_labels(self, fn) -> "RingElement":
        return RingElement((fn(label), coeff) for label, coeff in self._terms.items())

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def is_nonnegative(self) -> bool:
        return all(c > 0 for c in self._terms.values())

    def dominates(self, other: "RingElement") -> bool:
        """True when ``other <= self`` in the coefficientwise partial order."""
        return (self - other).is_nonnegative() or self == other

    def total(self) -> int:
        return sum(self._terms.values())

    def __add__(self, other: "RingElement") -> "RingElement":
        if not isinstance(other, RingElement):
            return NotImplemented
        acc = dict(self._terms)
        for label, coeff in other._terms.items():
            acc[label] = acc.get(label, 0) + coeff
        return RingElement._of(acc)

    def __sub__(self, other: "RingElement") -> "RingElement":
        return self + (-other)

    def __neg__(self) -> "RingElement":
        return RingElement._of({label: -coeff for label, coeff in self._terms.items()})

    def __mul__(self, scalar: int) -> "RingElement":
        if not isinstance(scalar, int):
            return NotImplemented
        return RingElement._of({label: scalar * coeff for label, coeff in self._terms.items()})

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RingElement) and self._terms == other._terms

    def __hash__(self) -> int:
        return hash(tuple(sorted(self._terms.items())))

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(self._terms))

    def format(self) -> str:
        """Canonical display, e.g. ``1*0 + 2*phi``; the zero element is ``0``."""
        if not self._terms:
            return "0"
        return " + ".join(f"{coeff}*{label}" for label, coeff in self.items())

    def __repr__(self) -> str:
        return f"RingElement({self.format()!r})"


def parse_element(text: str) -> RingElement:
    """Parse ``term ( " + " term)*`` with ``term = [int "*"] label``.

    Terms are separated by a plus with surrounding spaces, so labels such as
    ``p+`` stay intact.  Raises ValueError on bad syntax; label membership is
    the caller's job.
    """
    text = text.strip()
    if not text:
        raise ValueError("empty element expression")
    if text == "0":
        return RingElement()
    terms: list[tuple[str, int]] = []
    for chunk in text.split(" + "):
        chunk = chunk.strip()
        if not chunk:
            raise ValueError(f"empty term in expression {text!r}")
        if "*" in chunk:
            coeff_text, _, label = chunk.partition("*")
            try:
                coeff = int(coeff_text.strip())
            except ValueError:
                raise ValueError(f"bad coefficient in term {chunk!r}") from None
            label = label.strip()
        else:
            coeff, label = 1, chunk
        if not label:
            raise ValueError(f"missing label in term {chunk!r}")
        terms.append((label, coeff))
    return RingElement(terms)
