"""Out-of-core storage layer: stripe spill and mmap read-back.

All engine I/O goes through this package (enforced by daisylint DL009):

* :mod:`repro.storage.stripefile` — the typed on-disk stripe format,
* :mod:`repro.storage.stripestore` — chunked spill + mmap reads + the LRU
  resident-column budget,
* :mod:`repro.storage.provider` — the lazy columns dict behind
  :class:`~repro.relation.columnview.ColumnView` and the per-table facade,
* :mod:`repro.storage.manager` — the engine-owned registry that owns the
  spill root and counts open OS handles.
"""

from repro.storage.manager import StorageManager
from repro.storage.modes import (
    STORAGE_AUTO,
    STORAGE_MEMORY,
    STORAGE_MMAP,
    STORAGE_MODES,
    validate_storage_mode,
)
from repro.storage.provider import StorageColumns, TableStorage
from repro.storage.stripefile import (
    STRIPE_ROWS,
    StripeFormatError,
    decode_stripe,
    encode_stripe,
    infer_stripe_kind,
    stripe_kind,
)
from repro.storage.stripestore import (
    ResidencyTracker,
    StaleGenerationError,
    StripeStore,
)

__all__ = [
    "STORAGE_AUTO",
    "STORAGE_MEMORY",
    "STORAGE_MMAP",
    "STORAGE_MODES",
    "STRIPE_ROWS",
    "ResidencyTracker",
    "StaleGenerationError",
    "StorageColumns",
    "StorageManager",
    "StripeFormatError",
    "StripeStore",
    "TableStorage",
    "decode_stripe",
    "encode_stripe",
    "infer_stripe_kind",
    "stripe_kind",
    "validate_storage_mode",
]
