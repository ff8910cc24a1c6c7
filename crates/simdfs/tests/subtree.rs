//! SimDfs's subtree operations against the brute-force model MemFs is
//! checked against, on paths whose siblings sort inside their prefix.

#[path = "../../hmr-api/tests/fs_model/mod.rs"]
mod fs_model;

use hmr_api::fs::FileSystem;
use proptest::prelude::*;
use simdfs::SimDfs;
use simgrid::{Cluster, CostModel};

use fs_model::{check_subtree_ops, layout_strategy, path_strategy};

fn fresh() -> Box<dyn FileSystem> {
    Box::new(SimDfs::with_config(
        Cluster::new(2, CostModel::default()),
        1 << 10,
        2,
    ))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn simdfs_subtree_ops_match_the_model(
        layout in layout_strategy(),
        q in path_strategy(),
        pick in 0usize..1024,
        dst in path_strategy(),
    ) {
        check_subtree_ops(&fresh, &layout, &q, pick, &dst);
    }
}
