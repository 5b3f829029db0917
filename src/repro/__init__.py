"""repro — a reproduction of BlameIt (SIGCOMM 2019).

"Zooming in on Wide-area Latencies to a Global Cloud Provider":
characterizing WAN latency from the cloud's viewpoint and localizing RTT
degradations to a faulty AS with passive analysis plus budgeted,
impact-prioritized active probes.

Packages:

* :mod:`repro.net` — Internet substrate (AS topology, valley-free BGP,
  latency model, BGP listener).
* :mod:`repro.cloud` — provider model (edge locations, clients, anycast,
  traceroute engine).
* :mod:`repro.sim` — world simulation (faults, workload, scenarios,
  labelled incidents).
* :mod:`repro.core` — BlameIt itself (Algorithm 1, expected-RTT learning,
  issue tracking, budgeted probing, localization, alerts, pipeline).
* :mod:`repro.baselines` — comparison systems (tomography, always-on
  probing, Trinocular-style probing, ⟨AS, Metro⟩ grouping).
* :mod:`repro.analysis` — measurement characterization and validation.

Quickstart::

    from repro import BlameItPipeline, Scenario, ScenarioParams

    scenario = Scenario.build(ScenarioParams(seed=1, duration_days=2))
    pipeline = BlameItPipeline(scenario)
    pipeline.warmup(0, 288)
    report = pipeline.run(288, 576)
    print(report.blame_fractions())
"""

from repro.core import BlameItConfig, BlameItPipeline, PipelineReport
from repro.core.blame import Blame
from repro.sim import Scenario, ScenarioParams, SegmentKind

__version__ = "1.0.0"

__all__ = [
    "Blame",
    "BlameItConfig",
    "BlameItPipeline",
    "PipelineReport",
    "Scenario",
    "ScenarioParams",
    "SegmentKind",
    "__version__",
]
