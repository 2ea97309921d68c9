"""One JSON encoder for the report dataclasses.

A report field is written under its own name, or under the name given in
``field(metadata={"json": name})``; ``{"json": None}`` leaves it out.  A
field whose value is None is skipped, and an ndarray becomes a list.  A
report with a ``passed`` verdict writes it first, as ``"pass"``.
"""

from __future__ import annotations

from dataclasses import fields

import numpy as np

__all__ = ["Report"]


class Report:
    """Base class of the dataclass reports: supplies to_dict()."""

    def to_dict(self) -> dict:
        out = {"pass": self.passed} if hasattr(self, "passed") else {}
        for f in fields(self):
            key = f.metadata.get("json", f.name)
            value = getattr(self, f.name)
            if key is not None and value is not None:
                out[key] = value.tolist() if isinstance(value, np.ndarray) else value
        return out
