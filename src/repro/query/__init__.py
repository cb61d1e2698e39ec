"""End-to-end query engine: parse, plan, and execute census queries."""

__all__ = ["QueryEngine", "ResultTable"]


def __getattr__(name):
    # Imported on first use (PEP 562), so the census layer can use
    # repro.query.match_store without loading the engine.
    if name == "QueryEngine":
        from repro.query.engine import QueryEngine

        return QueryEngine
    if name == "ResultTable":
        from repro.query.result import ResultTable

        return ResultTable
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
