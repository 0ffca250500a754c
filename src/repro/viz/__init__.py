"""Dependency-free SVG rendering of the paper's figures."""

from .._lazy import lazy_exports

__getattr__, __all__ = lazy_exports(__name__, {
    "axes": ("LinearScale", "LogScale", "decade_ticks", "format_tick", "nice_linear_ticks"),
    "figures": ("build_figures", "render_all"),
    "plot": ("LinePlot", "Series"),
    "svg": ("SvgCanvas",),
})
