"""Machine-checkable certificates for repair and witness operations.

A certificate records exact valuations (never floats), the estimate
class achieved, the precision ledger, and a digest of the inputs.  A
repair's claims are re-measured on its input and output: the digest, the
norms, the output's exactness and bound, the image's p-part; the ledger's
steps are a record of the run, checked for consistency only.  A witness
is re-derived from its parameters and must reproduce whole.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, Optional

from .local_ring import NormValue

SCHEMA_VERSION = 1


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def digest(obj) -> str:
    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()


def encode_val(v: NormValue) -> object:
    if v.saturated:
        return "saturated"
    e = v.exponent
    return e.numerator if e.denominator == 1 else [e.numerator, e.denominator]


@dataclass
class Certificate:
    operation: str
    inputs_digest: str
    before: Dict[str, object] = field(default_factory=dict)
    after: Dict[str, object] = field(default_factory=dict)
    estimate_class: str = "optimal"
    ledger: Optional[dict] = None
    witness: Dict[str, object] = field(default_factory=dict)
    verified: bool = True

    def to_json(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "certificate",
            "operation": self.operation,
            "inputs_digest": self.inputs_digest,
            "before": self.before,
            "after": self.after,
            "estimate_class": self.estimate_class,
            "ledger": self.ledger,
            "witness": self.witness,
            "verified": self.verified,
        }


class VerificationFailure(RuntimeError):
    pass
