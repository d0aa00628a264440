"""Exception types shared across the package."""


class InputFormatError(ValueError):
    """A file or structured input violates its declared format."""


class SingularityError(ValueError):
    """A waypoint coincides exactly with an obstacle point.

    The repulsive force is undefined at zero distance, so the offending
    obstacle is reported instead of silently producing infinities.
    """

    def __init__(self, obstacle_index: int):
        super().__init__(f"waypoint coincides with obstacle {obstacle_index}")
        self.obstacle_index = obstacle_index
