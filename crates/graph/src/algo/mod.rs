//! Graph algorithms: traversal, connectivity, distance estimation, and
//! degree-1 peeling.

mod components;
mod distance;
mod pendant;
mod traversal;
mod union_find;

pub use components::{
    components_after_removal, connected_components, is_connected, largest_component,
    ComponentLabels,
};
pub use distance::{double_sweep_lower_bound, eccentricity, vertex_diameter_bounds};
pub use pendant::PendantForest;
pub use traversal::{bfs_distances, bfs_distances_into, bfs_order, dfs_preorder, UNREACHED};
pub use union_find::UnionFind;
