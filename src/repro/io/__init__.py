"""Binary checkpoint container format.

Serialises NUMARCK chains to disk so a simulation can actually restart
from files (paper Section II-D): one *full* record holding the exact
``D_0`` followed by one *delta* record per compressed iteration.  Each
record is framed with a type tag, a payload length and a CRC32, so
truncated or corrupted checkpoint files are detected at read time instead
of silently feeding garbage into a restart.

High-level API::

    from repro.io import (CheckpointFile, load_chain, load_chains,
                          save_chain, save_chains)

    save_chain(path, chain)                 # CheckpointChain -> file
    chain = load_chain(path)                # file -> CheckpointChain

    save_chains(path, {"dens": c1, "pres": c2})   # multi-variable file
    chains = load_chains(path)              # -> {"dens": ..., "pres": ...}

    with CheckpointFile.create(path) as f:  # streaming writer
        f.write_full(chain.full_payload)    # or write_full(p, name="dens")
        f.write_delta(chain.payloads[0])    # or write_delta(p, name="dens")

    with CheckpointFile.append(path) as f:  # crash-consistent appends
        f.write_delta(chain.payloads[1])    # per-record fsync

    chain, report = load_chain(path, recover="tail")   # torn-tail salvage

Durability: ``save_*`` replace files atomically (temp file + fsync +
rename, see :mod:`repro.io.durable`); ``append`` fsyncs per record and
truncates torn tails left by interrupted writes; ``salvage_truncate``
repairs a damaged file in place.
"""

from repro.io.container import (
    CheckpointFile,
    chain_from_bytes,
    chain_to_bytes,
    load_chain,
    load_chains,
    salvage_truncate,
    save_chain,
    save_chains,
)
from repro.io.durable import atomic_write, fsync_dir, retry_io
from repro.io.streamed import (
    load_streamed,
    save_streamed,
    streamed_from_bytes,
    streamed_to_bytes,
)
from repro.io.format import (
    FORMAT_VERSION,
    MAGIC,
    decode_delta_bytes,
    decode_full_bytes,
    encode_delta_bytes,
    encode_full_bytes,
)

__all__ = [
    "CheckpointFile",
    "save_chain",
    "load_chain",
    "save_chains",
    "load_chains",
    "save_streamed",
    "load_streamed",
    "chain_to_bytes",
    "chain_from_bytes",
    "streamed_to_bytes",
    "streamed_from_bytes",
    "salvage_truncate",
    "atomic_write",
    "retry_io",
    "fsync_dir",
    "encode_delta_bytes",
    "decode_delta_bytes",
    "encode_full_bytes",
    "decode_full_bytes",
    "MAGIC",
    "FORMAT_VERSION",
]
