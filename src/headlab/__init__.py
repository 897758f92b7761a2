"""Desk-scale laboratory for early-abort diffusion generation.

An analytically tractable diffusion engine over scene mixtures, mid-run
capture of predicted final images and attention maps, a per-object presence
detector, abort-policy economics (closed form and Monte Carlo), and a live
abort-and-reseed runtime, all reproducible bit for bit from explicit seeds.
"""
