"""Performance layer: columnar generation and sharded execution.

The paper's pipeline is embarrassingly parallel along two axes — 5-minute
buckets are independent given an expected-RTT table, and cloud locations
are independent within a bucket — and the per-quartet math of Algorithm 1
is plain arithmetic over columns. This package exploits both:

* :class:`repro.perf.batch.BatchQuartetGenerator` — the traffic model:
  NumPy-vectorized quartet generation producing columnar
  :class:`~repro.core.quartet.QuartetBatch` objects, pinned by
  ``tests/golden/substrate_v1.json``.
* :class:`repro.perf.sharded.ShardedPipeline` — the sequential pipeline
  with its spans (generation + ingest + vectorized passive phase)
  computed by ``multiprocessing`` workers, folded in time order by the
  one run loop, which keeps the probe-budgeted active phase in a single
  process so §5.3 budget semantics are preserved; its reports are
  byte-identical to the sequential driver's.
"""

from repro.perf.batch import BatchQuartetGenerator

__all__ = ["BatchQuartetGenerator"]
