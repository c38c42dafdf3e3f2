"""Ray Data stages: Arrow-native ``map_batches`` kernels (stateless tasks) and
actor-pool classes (stateful stages). All kernels are deterministic and
side-effect-free so Ray task retries are safe (SURVEY.md section 4.2)."""


def pylist(arr) -> list:
    """``arr.to_pylist()`` for a string or binary Arrow array, without a
    scalar object per value."""
    return arr.to_numpy(zero_copy_only=False).tolist()
