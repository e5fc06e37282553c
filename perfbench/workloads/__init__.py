"""The four workloads. Each module's build(seed) returns (operations of one pass, warm-up)."""
