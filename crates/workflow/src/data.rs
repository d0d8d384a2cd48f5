//! Data items flowing along workflow edges.
//!
//! The simulator never touches real pixels or audio samples; a
//! [`DataItem`] carries the *metadata* the cost models and the scheduler
//! need (durations, counts, token lengths).

use serde::{Deserialize, Serialize};

/// Typed metadata for a value produced/consumed by a task.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum DataItem {
    /// A whole video file.
    Video {
        /// File name (e.g. `"cats.mov"`).
        file: String,
        /// Duration in seconds.
        duration_s: f64,
        /// Number of detected scenes.
        scenes: u32,
    },
    /// One scene's audio track.
    Audio {
        /// Duration in seconds.
        seconds: f64,
    },
    /// A set of extracted frames.
    Frames {
        /// Frame count.
        count: u32,
    },
    /// A speech transcript.
    Transcript {
        /// Approximate token length.
        tokens: u32,
    },
    /// Detected object labels.
    Objects {
        /// Number of labels.
        count: u32,
    },
    /// LLM-produced text (summary, answer, reasoning step...).
    Text {
        /// Approximate token length.
        tokens: u32,
    },
    /// A vector embedding.
    Embedding {
        /// Dimensionality.
        dims: u32,
    },
    /// A batch of generic items (posts, documents, results).
    Items {
        /// Item count.
        count: u32,
    },
}

impl DataItem {
    /// Approximate token length when this item is pasted into an LLM
    /// prompt (used to size summarisation calls).
    pub fn prompt_tokens(&self) -> u32 {
        match *self {
            // ~60 image-patch tokens per frame for a VLM.
            DataItem::Frames { count } => count * 60,
            DataItem::Transcript { tokens } | DataItem::Text { tokens } => tokens,
            DataItem::Objects { count } => count * 4,
            DataItem::Items { count } => count * 40,
            DataItem::Video { .. } | DataItem::Audio { .. } | DataItem::Embedding { .. } => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prompt_tokens_for_multimodal_inputs() {
        assert_eq!(DataItem::Frames { count: 10 }.prompt_tokens(), 600);
        assert_eq!(DataItem::Transcript { tokens: 300 }.prompt_tokens(), 300);
        assert_eq!(DataItem::Objects { count: 12 }.prompt_tokens(), 48);
        assert_eq!(
            DataItem::Video {
                file: "cats.mov".into(),
                duration_s: 120.0,
                scenes: 6
            }
            .prompt_tokens(),
            0
        );
    }
}
