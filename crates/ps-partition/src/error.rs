//! Errors for partition construction and manipulation.

use std::fmt;

use crate::Element;

/// Errors raised when constructing or combining partitions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PartitionError {
    /// A block supplied to [`crate::Partition::from_blocks`] was empty.
    EmptyBlock,
    /// The same element appeared in two different blocks.
    OverlappingBlocks(Element),
    /// An element was expected to belong to the partition's population but
    /// does not.
    NotInPopulation(Element),
    /// The population supplied does not match the union of the blocks.
    PopulationMismatch,
    /// A label vector given as canonical is not: some label is more than
    /// one above every label before it.
    NonCanonicalLabels,
}

impl fmt::Display for PartitionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PartitionError::EmptyBlock => write!(f, "partitions may not contain empty blocks"),
            PartitionError::OverlappingBlocks(e) => {
                write!(f, "element {e} appears in more than one block")
            }
            PartitionError::NotInPopulation(e) => {
                write!(f, "element {e} is not in the partition's population")
            }
            PartitionError::PopulationMismatch => {
                write!(
                    f,
                    "the union of the blocks does not equal the stated population"
                )
            }
            PartitionError::NonCanonicalLabels => {
                write!(f, "labels are not numbered by first occurrence")
            }
        }
    }
}

impl std::error::Error for PartitionError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert!(PartitionError::EmptyBlock.to_string().contains("empty"));
        assert!(PartitionError::OverlappingBlocks(Element::new(3))
            .to_string()
            .contains("more than one block"));
        assert!(PartitionError::NotInPopulation(Element::new(5))
            .to_string()
            .contains("population"));
        assert!(PartitionError::PopulationMismatch
            .to_string()
            .contains("union of the blocks"));
        assert!(PartitionError::NonCanonicalLabels
            .to_string()
            .contains("first occurrence"));
    }
}
