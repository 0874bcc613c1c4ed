"""Two-photon probes of a lossy optical phase shift: bounds, simulation, estimation."""

__version__ = "0.1.0"
