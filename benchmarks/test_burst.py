"""Extension: burst-storm experiment on the paper's 64-core host.

256 simultaneous requests for one function.  Every baseline must push
sandbox construction through the shared core pool; Fireworks restores
post-JIT snapshots — cheap per-clone and memory-shared — so its tail
latency stays two orders of magnitude lower.
"""

from conftest import emit, run_experiment


def test_burst_storm(benchmark):
    results = benchmark.pedantic(lambda: run_experiment("burst"), rounds=1,
                                 iterations=1)
    emit("Extension — 256-request burst on 64 cores (faas-netlatency)",
         "\n".join(result.as_line() for result in results.values()))

    fireworks = results["fireworks"]
    openwhisk = results["openwhisk"]
    firecracker = results["firecracker"]

    # Fireworks' p99 stays far below the container/VM baselines.
    assert fireworks.latency.p99_ms < openwhisk.latency.p99_ms / 5
    assert fireworks.latency.p99_ms < firecracker.latency.p99_ms / 20
    # And it drains the burst fastest.
    assert fireworks.makespan_ms < min(openwhisk.makespan_ms,
                                       firecracker.makespan_ms)
    # OpenWhisk recycles containers mid-burst (warm hits > 0), Firecracker
    # boots everything.
    assert openwhisk.warm_share > 0.3
    assert firecracker.warm_share == 0.0
