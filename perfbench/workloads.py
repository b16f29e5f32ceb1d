"""Benchmark workloads: fixed command lists for the ``dipolesum`` CLI.

The program is deterministic, so a workload is a fixed list of argv lists;
the ``--seed`` given to the benchmark is only recorded.  Why each workload
was chosen, and which metric each layer is expected to move on it, is in
README.md beside this file; the one-line reasons are in BENCHMARK.json.
"""

WORKLOADS: dict[str, list[list[str]]] = {
    # Brute-force splits for 1s, 2s and 2p (both channels) at n_max = 2000:
    # exact bound-bound tables plus Numerov continuum waves.
    "paper-tables": [
        ["verify", "--suite", "paper-tables", "--format", "json"],
    ],
    # One exact 1s z2 table; the continuum uses the 1s closed form, so no
    # Numerov wave is ever built.  Also the only workload that runs the
    # table row path, the deep inverse ladder, the Green's-kernel route,
    # the contour check and exact matrix output.
    "ground-state": [
        ["table", "--state", "1s", "--orders=-13..3", "--format", "json"],
        ["verify", "--suite", "contour", "--format", "json"],
        ["verify", "--suite", "equivalences", "--format", "json"],
        ["matrix", "--state", "1s", "--to-n", "500", "--channel", "plus"],
        ["matrix", "--state", "2p", "--to-n", "2000", "--channel", "minus"],
    ],
    # Grid Numerov shooting only: no matrix elements, no continuum waves,
    # no oracle calls.
    "grid-potentials": [
        ["table", "--potential", "gamma=2", "--nodes", "0", "--orders", "0..4"],
        ["table", "--potential", "gamma=1", "--l", "1", "--nodes", "1", "--orders", "0..4"],
        ["table", "--potential", "log", "--orders", "0..4"],
        ["potential", "--potential", "log", "--l", "0", "--nodes", "0"],
        ["potential", "--potential", "gamma=1/2", "--nodes", "3"],
        ["verify", "--suite", "identities"],
    ],
}
