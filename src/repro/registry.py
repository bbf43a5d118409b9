"""One name registry: the contract every named experiment axis shares.

Algorithms, update workloads, fault programs, delivery substrates and
delivery schedulers are each published under a short lowercase name in a
:class:`Registry`.  Every instance enforces the same rules: names are
non-empty lowercase, a name binds one object (registering the same object
again is a no-op), an unknown name fails with the sorted list of registered
names, and a missing summary falls back to the docstring's first line, then
to the name.  Only the noun and the error class differ per axis.

This module imports nothing from the package, so both :mod:`repro.network`
and :mod:`repro.api` can build their registries on it.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Type, TypeVar

__all__ = ["Registry"]

T = TypeVar("T")


class Registry:
    """Name -> object table with a registration decorator and lookups.

    ``entries`` is the backing ``{name: object}`` dict; per-name metadata
    (the summary plus any ``**meta`` given at registration) is kept beside
    it and read with :meth:`meta`.
    """

    def __init__(self, noun: str, plural: str, error: Type[Exception]) -> None:
        self.noun = noun
        self.plural = plural
        self.error = error
        self.entries: Dict[str, Any] = {}
        self._meta: Dict[str, Dict[str, Any]] = {}

    def register(self, name: str, summary: str = "", **meta: Any) -> Callable[[T], T]:
        """Decorator: publish the decorated object under ``name``."""
        if not name or name != name.strip().lower():
            raise self.error(f"{self.noun} names must be non-empty lowercase, got {name!r}")

        def decorate(obj: T) -> T:
            if name in self.entries:
                if self.entries[name] is not obj:
                    raise self.error(f"{self.noun} {name!r} is already registered")
                return obj
            doc_lines = (obj.__doc__ or "").strip().splitlines()
            fallback = doc_lines[0] if doc_lines else name
            self.entries[name] = obj
            self._meta[name] = {"summary": summary or fallback, **meta}
            return obj

        return decorate

    def get(self, name: str) -> Any:
        """The object registered under ``name`` (fail with the known names)."""
        try:
            return self.entries[name]
        except KeyError:
            known = ", ".join(self.names()) or "<none>"
            raise self.error(
                f"unknown {self.noun} {name!r}; registered {self.plural}: {known}"
            ) from None

    def names(self) -> List[str]:
        """The registered names, sorted."""
        return sorted(self.entries)

    def summaries(self) -> Dict[str, str]:
        """Name -> one-line summary for every registered name."""
        return {name: self._meta[name]["summary"] for name in self.names()}

    def meta(self, name: str, key: str, default: Any = None) -> Any:
        """``key`` as given at registration, else the object's attribute, else ``default``."""
        obj = self.get(name)
        return self._meta[name].get(key, getattr(obj, key, default))
