#!/usr/bin/env python3
"""Telephone call recording at scale: frequent asynchronous advancement.

The paper's motivating system records "several million calls every hour"
across many switches.  This example runs a 12-switch cluster under a heavy
call load, advances versions every 5 simulated seconds, and shows the two
scalability properties together:

1. user transactions never wait for remote activity, no matter how often
   versions advance;
2. reads get fresher and fresher data as the advancement period shrinks —
   without the monthly staleness of manual versioning.

Run:  python examples/telecom_calls.py
"""

from repro import Table, latency_summary, max_remote_wait, staleness_summary
from repro.core import PeriodicPolicy, ThreeVSystem
from repro.sim import RngRegistry
from repro.txn import History
from repro.workloads import telecom_workload
from repro.workloads.arrivals import drive, poisson_arrivals
from repro.workloads.telecom import switch_names

SWITCHES = 12
DURATION = 120.0
CALL_RATE = 40.0  # calls per second across the cluster
CHECK_RATE = 6.0  # balance checks per second


def run_with_period(period: float):
    nodes = switch_names(SWITCHES)
    system = ThreeVSystem(
        nodes, seed=99, policy=PeriodicPolicy(period),
        history=History(events=()),
    )
    workload = telecom_workload(switches=SWITCHES, accounts=2000, seed=99)
    workload.install(system)
    arrivals = RngRegistry(17)
    # A call is the generic recording transaction, a balance check an
    # inquiry.
    drive(system, poisson_arrivals(arrivals, "calls", CALL_RATE, DURATION),
          workload.draw_recording, workload.build_recording)
    drive(system, poisson_arrivals(arrivals, "checks", CHECK_RATE, DURATION),
          workload.draw_inquiry, workload.build_inquiry)
    system.run(until=DURATION)
    system.stop_policy()
    system.run_until_quiet()
    return system


def main():
    table = Table(
        f"Call recording, {SWITCHES} switches, {CALL_RATE:.0f} calls/s, "
        "advancement period swept",
        ["period (s)", "advancements", "calls done", "p99 call latency",
         "mean read staleness", "max remote wait"],
        precision=3,
    )
    for period in (60.0, 20.0, 5.0):
        system = run_with_period(period)
        calls = latency_summary(system.history, kind="update")
        staleness = staleness_summary(system.history)
        table.add(
            period,
            system.coordinator.completed_runs,
            calls.count,
            calls.p99,
            staleness.mean,
            max_remote_wait(system.history),
        )
    table.print()
    print(
        "Call latency is flat while staleness falls with the period:\n"
        "advancement is free as far as user transactions are concerned."
    )


if __name__ == "__main__":
    main()
