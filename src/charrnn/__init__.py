"""Character-level recurrent text generation with hand-derived gradients."""
