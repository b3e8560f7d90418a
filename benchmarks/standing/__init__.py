"""The repo's standing benchmark: four wire-driven workloads, end-to-end
metrics from an untraced run, and a per-layer time budget from a traced
run. See README.md in this directory."""
