"""Discrete Hamiltonian stationary Lagrangian geometry on periodic grids."""

__version__ = "0.1.0"
