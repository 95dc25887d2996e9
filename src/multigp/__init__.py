"""Multi-solution genetic programming.

Three linear chromosome encodings (MEP, LGP, IFGP), each decodable in a
single pass that scores every embedded candidate solution, plus the
single-solution variants, one steady-state evolution loop and a benchmark
harness for success-rate sweeps on four symbolic-regression problems.

The package exports nothing itself: import the submodules (``core``,
``mep``, ``lgp``, ``ifgp``, ``engine``, ``harness``, ``cli``).
"""
