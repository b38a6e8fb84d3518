"""Per-tenant checkpoint chains behind the service.

A *chain* is the service-side name for one tenant's checkpoint sequence:
the first compress job on a chain stores its array as the full checkpoint,
every later job appends an encoded delta.  Each chain wraps one live
:class:`~repro.core.checkpoint.CheckpointChain`, so with
``adaptive=True`` in its config the fitted bin model is carried across
*jobs* exactly as it is carried across iterations in a single process --
the model hint rides on the chain, not on the request.

Chains are optionally durable.  With a ``store_dir`` every accepted
iteration is persisted through the crash-consistent container, one
flushed and fsynced record per job, before the job is acknowledged.
Each durable chain holds one open :class:`~repro.io.container.CheckpointFile`
writer between jobs, so an append costs the same at any chain length: a
new chain keeps the writer that wrote its full checkpoint, and a chain
recovered at start-up opens its writer with ``CheckpointFile.append`` on
its first delta -- the one scan of its file per server lifetime, which
also cuts any torn tail.  On startup existing files are re-opened with
``recover="tail"`` so a torn tail from a crashed server costs the torn
record, never the chain.  A failed persist closes the writer (the next
job scans again, the
:meth:`~repro.restart.manager.RestartManager.persist_incremental` rule),
and the chain takes a state only once its record is written, so memory
never runs ahead of disk.
"""

from __future__ import annotations

import contextlib
import re
import threading
from pathlib import Path
from typing import Any

import numpy as np

from repro.core.checkpoint import CheckpointChain
from repro.core.config import NumarckConfig
from repro.core.encoder import EncodedIteration
from repro.errors import ChainNotFoundError, ConfigError, StateError
from repro.io.container import CheckpointFile, chain_to_bytes, load_chain
from repro.telemetry.tracer import get_telemetry

__all__ = ["Chain", "ChainRegistry"]

_ID_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")


def _validate_id(chain_id: str) -> str:
    """Chain ids become file names; reject anything path-unsafe."""
    if not isinstance(chain_id, str) or not _ID_RE.match(chain_id):
        raise ConfigError(
            f"invalid chain id {chain_id!r}: need 1-64 chars of "
            f"[A-Za-z0-9._-] starting with an alphanumeric"
        )
    return chain_id


class Chain:
    """One tenant chain: a live ``CheckpointChain`` plus its lock, path
    and counters.  All mutation happens under :attr:`lock`, which the
    registry hands to the job closure -- two jobs on the same chain
    serialise, jobs on different chains run concurrently."""

    def __init__(self, chain_id: str, config: NumarckConfig,
                 path: Path | None) -> None:
        self.id = chain_id
        self.config = config
        self.path = path
        self.lock = threading.RLock()
        self.chain: CheckpointChain | None = None
        self._writer: CheckpointFile | None = None
        self.jobs_accepted = 0
        self.bytes_in = 0
        self.bytes_out = 0

    # -- mutation (caller holds no lock; we take our own) -------------------

    def append_state(self, state: np.ndarray) -> dict[str, Any]:
        """Absorb one iteration: full checkpoint if the chain is empty,
        encoded delta otherwise.  Returns a result summary dict.  With a
        path the record is on disk before the chain takes the state; a
        failed write leaves the chain as it was and propagates."""
        arr = np.asarray(state, dtype=np.float64)
        durable = self.path is not None
        with self.lock, get_telemetry().span(
                "service.chain.append", chain=self.id,
                bytes_in=arr.nbytes) as sp:
            if self.chain is None:
                chain = CheckpointChain(arr, self.config)
                if durable:
                    self._write_full(chain.full_checkpoint)
                self.chain = chain
                kind = "full"
                reused = False
            else:
                self.chain.append(
                    arr, persist=self._write_delta if durable else None)
                kind = "delta"
                reused = bool(getattr(self.chain.deltas[-1],
                                      "model_reused", False))
            self.jobs_accepted += 1
            self.bytes_in += arr.nbytes
            sp.set(record=kind, model_reused=reused,
                   iterations=len(self.chain))
            return {"chain": self.id, "record": kind,
                    "iteration": len(self.chain) - 1,
                    "model_reused": reused}

    def _write_full(self, data: np.ndarray) -> None:
        """Start the chain's file and keep its writer open."""
        try:
            self._writer = CheckpointFile.create(self.path, sync=True)
            self._writer.write_full(data)
        except BaseException:
            self._drop_writer()
            # No FULL record: leave no header-only file to recover.
            with contextlib.suppress(OSError):
                self.path.unlink(missing_ok=True)
            raise

    def _write_delta(self, encoded: EncodedIteration) -> None:
        """Append one delta through the held writer.  A chain recovered at
        start-up opens its writer here: its one scan of the file."""
        try:
            if self._writer is None:
                self._writer = CheckpointFile.append(self.path)
                # Cut a record a failed rollback left behind; a file
                # shorter than the chain raises.
                self._writer.truncate_records(len(self.chain))
            self._writer.write_delta(encoded)
        except BaseException:
            # The handle may sit past a torn record; the next job scans.
            self._drop_writer()
            raise

    def _drop_writer(self) -> None:
        with contextlib.suppress(OSError):
            self.close()

    def close(self) -> None:
        """Close the held writer; the next append re-opens the file."""
        with self.lock:
            if self._writer is not None:
                writer, self._writer = self._writer, None
                writer.close()

    def container_bytes(self) -> bytes:
        """The chain as container bytes -- byte-identical to
        ``save_chain`` of the same chain."""
        with self.lock:
            if self.chain is None:
                raise StateError(f"chain {self.id!r} holds no checkpoints yet")
            return chain_to_bytes(self.chain)

    def stats(self) -> dict[str, Any]:
        with self.lock:
            n = len(self.chain) if self.chain is not None else 0
            reuse = self.chain.reuse_stats if self.chain is not None else None
            out: dict[str, Any] = {
                "id": self.id,
                "iterations": n,
                "n_points": (int(self.chain.full_checkpoint.size)
                             if self.chain is not None else 0),
                "jobs_accepted": self.jobs_accepted,
                "bytes_in": self.bytes_in,
                "config": self.config.to_dict(),
                "durable": self.path is not None,
            }
            if reuse is not None:
                out["model_reuse"] = {"encodes": reuse.encodes,
                                      "reuse_hits": reuse.reuse_hits,
                                      "refits": reuse.refits,
                                      "hit_rate": reuse.hit_rate}
            return out


class ChainRegistry:
    """Name -> :class:`Chain` map with optional on-disk recovery."""

    def __init__(self, config: NumarckConfig | None = None,
                 store_dir: str | Path | None = None) -> None:
        self.default_config = config if config is not None else NumarckConfig()
        self.store_dir = Path(store_dir) if store_dir is not None else None
        self._chains: dict[str, Chain] = {}
        self._lock = threading.Lock()
        if self.store_dir is not None:
            self.store_dir.mkdir(parents=True, exist_ok=True)
            self._recover()

    def _path_for(self, chain_id: str) -> Path | None:
        if self.store_dir is None:
            return None
        return self.store_dir / f"{chain_id}.nmk"

    def _recover(self) -> None:
        """Re-open persisted chains, salvaging torn tails."""
        assert self.store_dir is not None
        for path in sorted(self.store_dir.glob("*.nmk")):
            chain_id = path.stem
            if not _ID_RE.match(chain_id):
                continue
            loaded, report = load_chain(path, self.default_config,
                                        recover="tail")
            with get_telemetry().span("service.chain.recover",
                                      chain=chain_id) as sp:
                sp.set(iterations=len(loaded),
                       records_dropped=report.records_dropped)
            chain = Chain(chain_id, self.default_config, path)
            chain.chain = loaded
            self._chains[chain_id] = chain

    # -- lookup / creation --------------------------------------------------

    def create(self, chain_id: str,
               config: NumarckConfig | None = None) -> Chain:
        """Create an empty chain; duplicate ids raise ``StateError``."""
        _validate_id(chain_id)
        cfg = config if config is not None else self.default_config
        with self._lock:
            if chain_id in self._chains:
                raise StateError(f"chain {chain_id!r} already exists")
            chain = Chain(chain_id, cfg, self._path_for(chain_id))
            self._chains[chain_id] = chain
            return chain

    def get(self, chain_id: str) -> Chain:
        with self._lock:
            chain = self._chains.get(chain_id)
        if chain is None:
            raise ChainNotFoundError(f"no such chain {chain_id!r}")
        return chain

    def get_or_create(self, chain_id: str,
                      config: NumarckConfig | None = None) -> Chain:
        """Fetch a chain, creating it on first use (the compress path)."""
        _validate_id(chain_id)
        with self._lock:
            chain = self._chains.get(chain_id)
            if chain is None:
                cfg = config if config is not None else self.default_config
                chain = Chain(chain_id, cfg, self._path_for(chain_id))
                self._chains[chain_id] = chain
            elif config is not None and config != chain.config:
                raise StateError(
                    f"chain {chain_id!r} already exists with a different "
                    f"config; omit config or use a new chain id"
                )
            return chain

    def list(self) -> list[dict[str, Any]]:
        with self._lock:
            chains = list(self._chains.values())
        return [c.stats() for c in chains]

    def close(self) -> None:
        """Close every chain's held writer."""
        with self._lock:
            chains = list(self._chains.values())
        for chain in chains:
            chain.close()

    def __len__(self) -> int:
        with self._lock:
            return len(self._chains)
