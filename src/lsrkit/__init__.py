"""lsrkit: a learned-sparse-retrieval engine with an impact inverted index.

Encoders, sparsity regularizers, and supervision are composable through
method configs; retrieval cost is measured both by counted multiply-accumulate
operations (`ops_count`) and by wall-clock time.  Every name is imported from
its module, e.g. `from lsrkit.encoders import stack_forward`.
"""
