//! The dispatch engine of one run: the resolved [`DispatchTier`]'s handler tables together
//! with the [`JitArtifact`]s their patched slots point into, behind the two operations the
//! executor needs — run a flat stream, run one loop iteration.
//!
//! Owning tables and native code in one value is what keeps the artifact alive as long as
//! the table (the patched head slots hold raw addresses into it). An engine is built once
//! per run on the submitting thread and shared by reference with every pool helper: the
//! tables are read-only during dispatch and sealed code pages are immutable, so helpers
//! neither re-lower the streams nor map executable memory of their own. It is also the one
//! place that knows the switch tier has no table at all.

use crate::jit::{self, JitArtifact};
use crate::parallel_image::{
    run_flat, run_iteration, FlatEnd, FlatError, IterEnd, IterError, IterSync, LoopImage, Tier,
};
use crate::threaded::{
    run_flat_threaded, run_iteration_threaded, DispatchTier, FlatTables, IterTable,
};
use helix_ir::{ExecImage, FuncId, Value};

pub(crate) struct Engine<'a, T: Tier> {
    image: &'a ExecImage,
    /// Absent for engines that only run flat code (calibration kernels).
    loop_image: Option<&'a LoopImage>,
    /// Both `None` for the switch tier, which dispatches the streams directly.
    flat: Option<(FlatTables<T>, Option<JitArtifact<T>>)>,
    iter: Option<(IterTable<T>, Option<JitArtifact<T>>)>,
}

impl<'a, T: Tier> Engine<'a, T> {
    /// Lowers (and under the JIT tier compiles) `image`'s flat streams and, when given,
    /// `loop_image`'s iteration stream for the already-resolved `tier`.
    pub(crate) fn build(
        tier: DispatchTier,
        image: &'a ExecImage,
        loop_image: Option<&'a LoopImage>,
    ) -> Self {
        Engine {
            image,
            loop_image,
            flat: jit::build_flat_tables(tier, image),
            iter: loop_image.and_then(|l| jit::build_iter_table(tier, l)),
        }
    }

    /// Runs `func` from `start_block` until it returns or reaches `stop_block` (see
    /// [`run_flat`] for the contract both tiers share).
    pub(crate) fn run_flat(
        &self,
        func: FuncId,
        start_block: u32,
        stop_block: Option<u32>,
        regs: &mut Vec<Value>,
        tier: &mut T,
        budget: u64,
    ) -> Result<FlatEnd, FlatError> {
        match &self.flat {
            Some((tables, _)) => run_flat_threaded(
                self.image,
                tables,
                func,
                start_block,
                stop_block,
                regs,
                tier,
                budget,
            ),
            None => run_flat(
                self.image,
                func,
                start_block,
                stop_block,
                regs,
                tier,
                budget,
            ),
        }
    }

    /// Runs iteration `iteration` of the loop this engine was built with (see
    /// [`run_iteration`] for the contract both tiers share).
    pub(crate) fn run_iteration(
        &self,
        iteration: u64,
        regs: &mut Vec<Value>,
        tier: &mut T,
        sync: &IterSync<'_>,
        on_control: &mut dyn FnMut(),
    ) -> Result<IterEnd, IterError> {
        let loop_image = self
            .loop_image
            .expect("engine was built without a loop image");
        match &self.iter {
            Some((table, _)) => run_iteration_threaded(
                self.image, loop_image, table, iteration, regs, tier, sync, on_control,
            ),
            None => run_iteration(
                self.image, loop_image, iteration, regs, tier, sync, on_control,
            ),
        }
    }
}
