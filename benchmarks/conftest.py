"""Shared fixtures for the benchmark harness."""


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "paper: regenerates a table or figure from the paper"
    )
