"""``repro.api.v2`` — the versioned public surface (DESIGN.md §17).

v1 was one flat module of 49 names; v2 groups the facade into four
namespaces, each with its own API001 manifest so surface drift is
diffed per-namespace:

* :mod:`repro.api.v2.replay` — backends, registries, single-trace and
  interned multi-config replay, stack distances;
* :mod:`repro.api.v2.bench` — grid execution (:class:`GridRequest`,
  ``run_grid``, :class:`~repro.bench.engine.EnginePool`) and the
  experiment definitions;
* :mod:`repro.api.v2.cluster` — the rack-aware cluster scenario;
* :mod:`repro.api.v2.serve` — the always-on cache-advisor service.

Observability is ``repro.obs`` directly (unversioned: it is already a
stable, self-contained package).  The v1 spellings keep working through
the :mod:`repro.api` shim, each emitting one :class:`DeprecationWarning`
pointing at its v2 home.
"""

from ... import obs  # noqa: F401  (re-export: api.v2.obs is api v1's `obs`)
from . import bench, cluster, replay, serve

__all__ = ["replay", "bench", "cluster", "serve", "obs"]
