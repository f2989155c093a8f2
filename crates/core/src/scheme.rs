//! The TIMBER cells' capture outcomes in the architectural simulator's
//! terms: `timber_pipeline::StageOutcome`.

use timber_pipeline::StageOutcome;

use crate::flipflop::CaptureOutcome;

impl From<CaptureOutcome> for StageOutcome {
    fn from(out: CaptureOutcome) -> StageOutcome {
        match out {
            CaptureOutcome::OnTime => StageOutcome::Ok,
            CaptureOutcome::Masked {
                borrowed, flagged, ..
            } => StageOutcome::Masked { borrowed, flagged },
            CaptureOutcome::Escaped { .. } => StageOutcome::Corrupted,
        }
    }
}
