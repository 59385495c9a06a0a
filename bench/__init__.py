"""Outside-in benchmark of the MapReduce stack; see README.md."""
