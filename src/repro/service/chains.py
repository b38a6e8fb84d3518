"""Per-tenant checkpoint chains behind the service.

A *chain* is the service-side name for one tenant's checkpoint sequence:
the first compress job on a chain stores its array as the full checkpoint,
every later job appends an encoded delta.  Each chain wraps one live
:class:`~repro.core.checkpoint.CheckpointChain`, so with
``adaptive=True`` in its config the fitted bin model is carried across
*jobs* exactly as it is carried across iterations in a single process --
the model hint rides on the chain, not on the request.

The chain builds every record payload once.  Without a ``store_dir``
the ``CheckpointChain`` is all a chain holds, and a download frames its
payloads.  With one, each chain holds one
:class:`~repro.io.container.ChainWriter` over its file, which frames the
payload the chain built, so an append costs the same at any chain
length; each record is fsynced before its job is acknowledged, and the
chain takes a state only once its record is written.  A durable download
serves the file's committed prefix: never a re-encode, a torn tail or a
record whose rollback failed.  Start-up re-opens stored chains with
``recover="tail"``: a crash costs the torn record, never the chain.  A
recovered chain decodes nothing; its first delta re-opens the file, the
one scan per server lifetime.
"""

from __future__ import annotations

import re
import threading
from pathlib import Path
from typing import Any

import numpy as np

from repro.core.checkpoint import CheckpointChain
from repro.core.config import NumarckConfig
from repro.errors import ChainNotFoundError, ConfigError, StateError
from repro.io.container import ChainWriter, chain_to_bytes, load_chain
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
    """One tenant chain: a live ``CheckpointChain`` plus its lock, path,
    writer (``None`` without a path) and counters.  All mutation happens
    under :attr:`lock`, which the registry hands to the job closure -- two
    jobs on the same chain serialise, jobs on different chains run
    concurrently."""

    def __init__(self, chain_id: str, config: NumarckConfig,
                 path: Path | None) -> None:
        self.id = chain_id
        self.config = config
        self.path = path
        self.lock = threading.RLock()
        self.chain: CheckpointChain | None = None
        self._writer = ChainWriter(path) if path is not None else None
        self.jobs_accepted = 0
        self.bytes_in = 0

    @classmethod
    def recover(cls, chain_id: str, config: NumarckConfig,
                path: Path) -> "Chain":
        """Re-open a stored chain; a torn tail is never served."""
        loaded, report = load_chain(path, config, recover="tail")
        with get_telemetry().span("service.chain.recover",
                                  chain=chain_id) as sp:
            sp.set(iterations=len(loaded),
                   records_dropped=report.records_dropped)
        chain = cls(chain_id, config, path)
        chain.chain = loaded
        chain._writer = ChainWriter(
            path, len(loaded),
            end=path.stat().st_size - report.bytes_truncated)
        return chain

    # -- mutation (caller holds no lock; we take our own) -------------------

    def append_state(self, state: np.ndarray) -> dict[str, Any]:
        """Absorb one iteration: full checkpoint if the chain is empty,
        encoded delta otherwise.  Returns a result summary dict.  A
        durable chain writes the record before the chain takes the state;
        a failed write leaves the chain as it was and propagates."""
        arr = np.asarray(state, dtype=np.float64)
        with self.lock, get_telemetry().span(
                "service.chain.append", chain=self.id,
                bytes_in=arr.nbytes) as sp:
            w = self._writer
            if self.chain is None:
                chain = CheckpointChain(arr, self.config)
                if w is not None:
                    w.write_full(chain.full_payload)
                self.chain = chain
                kind, reused = "full", False
            else:
                stats = self.chain.append(
                    arr, persist=None if w is None else w.write_delta)
                kind, reused = "delta", stats.model_reused
            self.jobs_accepted += 1
            self.bytes_in += arr.nbytes
            sp.set(record=kind, model_reused=reused,
                   iterations=len(self.chain))
            return {"chain": self.id, "record": kind,
                    "iteration": len(self.chain) - 1,
                    "model_reused": reused}

    def close(self) -> None:
        """Close a durable chain's writer; the next append re-opens the
        file."""
        with self.lock:
            if self._writer is not None:
                self._writer.close()

    def container_bytes(self) -> bytes:
        """The chain's container, byte-identical to ``save_chain`` of it:
        a durable chain's committed file prefix, as stored (never a torn
        or rolled-back record); an in-memory chain's payloads, framed."""
        with self.lock:
            if self.chain is None:
                raise StateError(f"chain {self.id!r} holds no checkpoints yet")
            if self._writer is None:
                return chain_to_bytes(self.chain)
            return self._writer.container_bytes()

    def stats(self) -> dict[str, Any]:
        with self.lock:
            n = len(self.chain) if self.chain is not None else 0
            reuse = self.chain.reuse_stats if self.chain is not None else None
            out: dict[str, Any] = {
                "id": self.id,
                "iterations": n,
                "n_points": (self.chain.n_points
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
            if _ID_RE.match(path.stem):
                self._chains[path.stem] = Chain.recover(
                    path.stem, self.default_config, path)

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
