"""Exact crystal combinatorics, the Cartan braiding, higher-rank graphs, and
a shift-operator model of the q=0 quantized coordinate ring."""
