"""tpbench: the repository's benchmark (see README.md and BENCHMARK.json)."""
